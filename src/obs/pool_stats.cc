#include "obs/pool_stats.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "obs/diag/flight_recorder.h"
#include "obs/metrics.h"

namespace dd::obs {

double PoolPhaseStats::SpeedupBound() const {
  std::uint64_t max_busy = 0;
  for (const PoolWorkerStats& w : workers) max_busy = std::max(max_busy, w.busy_ns);
  if (max_busy == 0) return 0.0;
  return static_cast<double>(busy_ns) / static_cast<double>(max_busy);
}

double PoolPhaseStats::ImbalancePercent() const {
  if (workers.empty()) return 0.0;
  std::uint64_t max_busy = 0;
  for (const PoolWorkerStats& w : workers) max_busy = std::max(max_busy, w.busy_ns);
  if (max_busy == 0) return 0.0;
  const double mean = static_cast<double>(busy_ns) /
                      static_cast<double>(workers.size());
  return 100.0 * (static_cast<double>(max_busy) - mean) /
         static_cast<double>(max_busy);
}

double PoolPhaseStats::CallerShare() const {
  if (busy_ns == 0) return 0.0;
  return static_cast<double>(caller_busy_ns) / static_cast<double>(busy_ns);
}

PoolStatsCollector& PoolStatsCollector::Global() {
  static PoolStatsCollector* collector = new PoolStatsCollector();
  return *collector;
}

void PoolStatsCollector::Enable() { diag::FlightRecorder::Enable(); }

void PoolStatsCollector::Disable() { diag::FlightRecorder::Disable(); }

bool PoolStatsCollector::enabled() const {
  return diag::FlightRecorderEnabled();
}

void PoolStatsCollector::Reset() { diag::FlightRecorder::Reset(); }

void PoolStatsCollector::OnChunk(const PoolChunkEvent& event) {
  diag::internal::Append({.t_ns = event.end_ns,
                          .name = event.phase,
                          .type = diag::EventType::kPoolChunk,
                          .caller = event.caller,
                          .arg = {event.start_ns, event.invocation, event.chunk,
                                  event.begin, event.end, event.cpu_ns}});
  static Counter& chunks = MetricsRegistry::Global().GetCounter("pool.chunks");
  static Counter& items = MetricsRegistry::Global().GetCounter("pool.items");
  static Counter& busy = MetricsRegistry::Global().GetCounter("pool.busy_ns");
  chunks.Increment();
  items.Add(event.end - event.begin);
  busy.Add(event.end_ns - event.start_ns);
}

void PoolStatsCollector::OnInvocation(const PoolInvocationEvent& event) {
  diag::internal::Append({.t_ns = event.end_ns,
                          .name = event.phase,
                          .type = diag::EventType::kPoolInvocation,
                          .arg = {event.start_ns, event.invocation,
                                  event.chunks, event.count, event.threads}},
                         /*args=*/5);
  static Counter& invocations =
      MetricsRegistry::Global().GetCounter("pool.invocations");
  static Counter& wall = MetricsRegistry::Global().GetCounter("pool.wall_ns");
  invocations.Increment();
  wall.Add(event.end_ns - event.start_ns);
}

namespace {

// A pool event read back from a ring, tagged with the ring's slot.
struct RawEvent {
  int slot;
  diag::RingEvent event;
};

struct PoolEventCollector : diag::RingVisitor {
  int slot = 0;
  std::vector<RawEvent> chunks;
  std::vector<RawEvent> invocations;
  void Thread(int ring_slot, int, std::uint64_t) override { slot = ring_slot; }
  void Event(const diag::RingEvent& event) override {
    if (event.type == diag::EventType::kPoolChunk) {
      chunks.push_back({slot, event});
    } else if (event.type == diag::EventType::kPoolInvocation) {
      invocations.push_back({slot, event});
    }
  }
};

}  // namespace

PoolStatsSnapshot PoolStatsCollector::Snapshot() const {
  PoolStatsSnapshot snapshot;
  PoolEventCollector collected;
  snapshot.dropped_events = diag::ReadRings(collected);

  // Aggregate per phase / per slot; join chunks to invocations for the
  // wait computation (wait = invocation wall − this slot's busy time
  // inside that invocation, for every invocation the slot touched).
  struct PhaseAgg {
    PoolPhaseStats stats;
    std::unordered_map<int, PoolWorkerStats> workers;
  };
  std::unordered_map<std::string, PhaseAgg> phases;
  // invocation id → per-slot busy nanoseconds.
  std::unordered_map<std::uint64_t, std::unordered_map<int, std::uint64_t>>
      busy_by_invocation;

  for (const RawEvent& raw : collected.chunks) {
    const diag::RingEvent& ev = raw.event;
    PhaseAgg& agg = phases[ev.name];
    const std::uint64_t dur = ev.t_ns > ev.arg[0] ? ev.t_ns - ev.arg[0] : 0;
    const std::uint64_t items = ev.arg[4] - ev.arg[3];
    agg.stats.chunks += 1;
    agg.stats.items += items;
    agg.stats.busy_ns += dur;
    agg.stats.cpu_ns += ev.arg[5];
    if (ev.caller) agg.stats.caller_busy_ns += dur;
    PoolWorkerStats& worker = agg.workers[raw.slot];
    worker.slot = raw.slot;
    worker.caller = worker.caller || ev.caller;
    worker.chunks += 1;
    worker.items += items;
    worker.busy_ns += dur;
    worker.cpu_ns += ev.arg[5];
    busy_by_invocation[ev.arg[1]][raw.slot] += dur;

    PoolChunkRecord record;
    record.phase = ev.name;
    record.invocation = ev.arg[1];
    record.slot = raw.slot;
    record.caller = ev.caller;
    record.chunk = static_cast<std::size_t>(ev.arg[2]);
    record.begin = static_cast<std::size_t>(ev.arg[3]);
    record.end = static_cast<std::size_t>(ev.arg[4]);
    record.start_ns = ev.arg[0];
    record.end_ns = ev.t_ns;
    snapshot.timeline.push_back(std::move(record));
  }

  for (const RawEvent& raw : collected.invocations) {
    const diag::RingEvent& ev = raw.event;
    PhaseAgg& agg = phases[ev.name];
    const std::uint64_t wall = ev.t_ns > ev.arg[0] ? ev.t_ns - ev.arg[0] : 0;
    agg.stats.invocations += 1;
    agg.stats.wall_ns += wall;
    const auto found = busy_by_invocation.find(ev.arg[1]);
    if (found == busy_by_invocation.end()) continue;
    for (const auto& [slot, busy] : found->second) {
      PoolWorkerStats& worker = agg.workers[slot];
      worker.slot = slot;
      worker.wait_ns += wall > busy ? wall - busy : 0;
    }
  }

  for (auto& [phase, agg] : phases) {
    agg.stats.phase = phase;
    agg.stats.workers.reserve(agg.workers.size());
    for (auto& [slot, worker] : agg.workers) {
      agg.stats.workers.push_back(worker);
    }
    std::sort(agg.stats.workers.begin(), agg.stats.workers.end(),
              [](const PoolWorkerStats& x, const PoolWorkerStats& y) {
                return x.slot < y.slot;
              });
    snapshot.phases.push_back(std::move(agg.stats));
  }
  std::sort(snapshot.phases.begin(), snapshot.phases.end(),
            [](const PoolPhaseStats& x, const PoolPhaseStats& y) {
              return x.phase < y.phase;
            });
  std::sort(snapshot.timeline.begin(), snapshot.timeline.end(),
            [](const PoolChunkRecord& x, const PoolChunkRecord& y) {
              if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
              if (x.invocation != y.invocation) return x.invocation < y.invocation;
              return x.chunk < y.chunk;
            });
  return snapshot;
}

}  // namespace dd::obs
