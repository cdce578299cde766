#include "common/parallel.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dd {

namespace {

// Sanity cap on pool size: a request beyond this still runs, just with
// fewer concurrent chunks than asked for.
constexpr std::size_t kMaxWorkers = 256;

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t EnvDefaultThreads() {
  const char* env = std::getenv("DD_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxWorkers);
    }
  }
  return HardwareThreads();
}

// 0 = "use the environment/hardware default", set by SetDefaultThreads.
std::atomic<std::size_t> g_default_threads{0};

// Set for the lifetime of a chunk execution (worker or participating
// caller); nested ParallelFor calls run inline when it is set.
thread_local bool t_in_chunk = false;

// Phase label of the top-level chunk this thread is executing
// (CurrentPoolPhase). Nested chunks do not overwrite it.
thread_local const char* t_phase = nullptr;

// Cleared when the pool singleton is destroyed so late ParallelFor
// calls (static destruction order) degrade to inline execution instead
// of touching a dead pool. Trivially destructible on purpose.
std::atomic<bool> g_pool_alive{false};

// Observation hook (SetPoolObserver). Snapshotted once per invocation
// so a concurrent uninstall cannot split one invocation's events
// between observers. Trivially destructible on purpose.
std::atomic<PoolObserver*> g_pool_observer{nullptr};

// Process-wide ParallelFor sequence number; chunk events carry it so
// the collector can join them back to their invocation.
std::atomic<std::uint64_t> g_invocation_seq{0};

// Watchdog heartbeat hook (SetPoolHeartbeatFn). Trivially destructible
// on purpose; fired only around top-level chunks.
std::atomic<PoolHeartbeatFn> g_pool_heartbeat{nullptr};

inline void PoolHeartbeat(bool begin) {
  const PoolHeartbeatFn fn = g_pool_heartbeat.load(std::memory_order_acquire);
  if (fn != nullptr) fn(begin);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// One ParallelFor invocation in flight on the pool. Workers and the
// caller claim chunk indices from `next`; the caller blocks until
// `done` reaches `chunks`.
struct PoolTask {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn;
  std::size_t count = 0;
  std::size_t per_chunk = 0;
  std::size_t chunks = 0;  // number of non-empty chunks
  const char* phase = "";
  std::uint64_t invocation = 0;
  PoolObserver* observer = nullptr;  // snapshot; null = no recording
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
};

void ExecuteChunk(PoolTask& task, std::size_t c, bool caller) {
  const std::size_t begin = c * task.per_chunk;
  const std::size_t end = std::min(task.count, begin + task.per_chunk);
  const bool was_in_chunk = t_in_chunk;
  t_in_chunk = true;
  if (!was_in_chunk) {
    PoolHeartbeat(/*begin=*/true);
    t_phase = task.phase;
  }
  if (task.observer != nullptr) {
    PoolChunkEvent event;
    event.phase = task.phase;
    event.invocation = task.invocation;
    event.chunk = c;
    event.begin = begin;
    event.end = end;
    event.caller = caller;
    const std::uint64_t cpu_start = ThreadCpuNs();
    event.start_ns = NowNs();
    (*task.fn)(c, begin, end);
    event.end_ns = NowNs();
    event.cpu_ns = ThreadCpuNs() - cpu_start;
    task.observer->OnChunk(event);
  } else {
    (*task.fn)(c, begin, end);
  }
  if (!was_in_chunk) {
    t_phase = nullptr;
    PoolHeartbeat(/*begin=*/false);
  }
  t_in_chunk = was_in_chunk;
  if (task.done.fetch_add(1, std::memory_order_acq_rel) + 1 == task.chunks) {
    // Synchronize with the caller's wait; the lock pairs the final
    // increment with the predicate re-check.
    std::lock_guard<std::mutex> lock(task.mu);
    task.cv.notify_all();
  }
}

class WorkerPool {
 public:
  WorkerPool() { g_pool_alive.store(true, std::memory_order_release); }

  ~WorkerPool() {
    g_pool_alive.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  // Runs `task` to completion; the calling thread claims chunks too.
  void Run(const std::shared_ptr<PoolTask>& task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked(task->chunks - 1);
      tasks_.push_back(task);
    }
    cv_.notify_all();
    for (;;) {
      const std::size_t c = task->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= task->chunks) break;
      ExecuteChunk(*task, c, /*caller=*/true);
    }
    std::unique_lock<std::mutex> lock(task->mu);
    task->cv.wait(lock, [&] {
      return task->done.load(std::memory_order_acquire) == task->chunks;
    });
  }

 private:
  void EnsureWorkersLocked(std::size_t want) {
    want = std::min(want, kMaxWorkers);
    while (workers_.size() < want) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }

  void WorkerMain() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      const std::shared_ptr<PoolTask> task = tasks_.front();
      const std::size_t c = task->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= task->chunks) {
        // Task exhausted; retire it if it is still queued.
        if (!tasks_.empty() && tasks_.front() == task) tasks_.pop_front();
        continue;
      }
      lock.unlock();
      ExecuteChunk(*task, c, /*caller=*/false);
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<PoolTask>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

WorkerPool& Pool() {
  static WorkerPool pool;
  return pool;
}

}  // namespace

std::size_t DefaultThreads() {
  const std::size_t overridden =
      g_default_threads.load(std::memory_order_relaxed);
  if (overridden != 0) return overridden;
  static const std::size_t env_default = EnvDefaultThreads();
  return env_default;
}

void SetDefaultThreads(std::size_t n) {
  g_default_threads.store(std::min(n, kMaxWorkers),
                          std::memory_order_relaxed);
}

std::size_t EffectiveChunks(std::size_t count, std::size_t threads) {
  if (threads <= 1 || count <= 1) return 1;
  return std::min(threads, count);
}

bool InParallelChunk() { return t_in_chunk; }

const char* CurrentPoolPhase() { return t_phase; }

PoolObserver* SetPoolObserver(PoolObserver* observer) {
  return g_pool_observer.exchange(observer, std::memory_order_acq_rel);
}

PoolObserver* GetPoolObserver() {
  return g_pool_observer.load(std::memory_order_acquire);
}

PoolHeartbeatFn SetPoolHeartbeatFn(PoolHeartbeatFn fn) {
  return g_pool_heartbeat.exchange(fn, std::memory_order_acq_rel);
}

void ParallelFor(const char* phase, std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) threads = DefaultThreads();
  std::size_t chunks = EffectiveChunks(count, threads);
  // Nested calls (or calls racing pool shutdown) run inline as one
  // chunk — the outer ParallelFor already owns the concurrency.
  const bool nested = t_in_chunk;
  if (nested) chunks = 1;
  // One relaxed-ish load per invocation; everything below branches on
  // the snapshot, so a disabled observer costs no clock reads. Nested
  // runs are never recorded — their time is already inside the
  // enclosing chunk's event.
  PoolObserver* const observer =
      nested ? nullptr : g_pool_observer.load(std::memory_order_acquire);
  if (chunks == 1) {
    if (observer != nullptr) {
      PoolChunkEvent event;
      event.phase = phase;
      event.invocation = g_invocation_seq.fetch_add(1, std::memory_order_relaxed);
      event.chunk = 0;
      event.begin = 0;
      event.end = count;
      event.caller = true;
      const std::uint64_t cpu_start = ThreadCpuNs();
      event.start_ns = NowNs();
      t_in_chunk = true;
      PoolHeartbeat(/*begin=*/true);
      t_phase = phase;
      fn(0, 0, count);
      t_phase = nullptr;
      PoolHeartbeat(/*begin=*/false);
      t_in_chunk = false;
      event.end_ns = NowNs();
      event.cpu_ns = ThreadCpuNs() - cpu_start;
      observer->OnChunk(event);
      PoolInvocationEvent inv;
      inv.phase = phase;
      inv.invocation = event.invocation;
      inv.count = count;
      inv.chunks = 1;
      inv.threads = threads;
      inv.start_ns = event.start_ns;
      inv.end_ns = event.end_ns;
      observer->OnInvocation(inv);
      return;
    }
    const bool was_in_chunk = t_in_chunk;
    t_in_chunk = true;
    if (!was_in_chunk) {
      PoolHeartbeat(/*begin=*/true);
      t_phase = phase;
    }
    fn(0, 0, count);
    if (!was_in_chunk) {
      t_phase = nullptr;
      PoolHeartbeat(/*begin=*/false);
    }
    t_in_chunk = was_in_chunk;
    return;
  }
  auto task = std::make_shared<PoolTask>();
  task->fn = &fn;
  task->count = count;
  task->per_chunk = (count + chunks - 1) / chunks;
  // Round the chunk count down to the non-empty ones so completion
  // tracking matches the chunks that actually run.
  task->chunks = (count + task->per_chunk - 1) / task->per_chunk;
  task->phase = phase;
  task->observer = observer;
  const std::uint64_t start_ns = observer != nullptr ? NowNs() : 0;
  if (observer != nullptr) {
    task->invocation = g_invocation_seq.fetch_add(1, std::memory_order_relaxed);
  }
  if (!g_pool_alive.load(std::memory_order_acquire)) {
    // First use starts the pool; a call after static destruction runs
    // the chunks inline instead.
    static std::atomic<bool> ever_started{false};
    if (ever_started.load(std::memory_order_acquire)) {
      for (std::size_t c = 0; c < task->chunks; ++c) {
        ExecuteChunk(*task, c, /*caller=*/true);
      }
    } else {
      ever_started.store(true, std::memory_order_release);
      Pool().Run(task);
    }
  } else {
    Pool().Run(task);
  }
  if (observer != nullptr) {
    PoolInvocationEvent inv;
    inv.phase = phase;
    inv.invocation = task->invocation;
    inv.count = count;
    inv.chunks = task->chunks;
    inv.threads = threads;
    inv.start_ns = start_ns;
    inv.end_ns = NowNs();
    observer->OnInvocation(inv);
  }
}

void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& fn) {
  ParallelFor("", count, threads, fn);
}

}  // namespace dd
