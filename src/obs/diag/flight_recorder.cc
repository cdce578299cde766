#include "obs/diag/flight_recorder.h"

#include <mutex>

#include "common/parallel.h"
#include "obs/diag/sigsafe.h"
#include "obs/pool_stats.h"

namespace dd::obs::diag {

namespace {

// Indexed by EventType.
constexpr const char* kEventTypeNames[] = {
    "none",      "span_begin", "span_end", "batch",  "determined",
    "approx_round", "heartbeat", "serve", "stall", "custom",
    "pool_chunk", "pool_invocation"};
constexpr std::size_t kEventTypes =
    sizeof(kEventTypeNames) / sizeof(kEventTypeNames[0]);

}  // namespace

const char* EventTypeName(EventType type) {
  const auto index = static_cast<std::size_t>(type);
  return index < kEventTypes ? kEventTypeNames[index] : "unknown";
}

EventType EventTypeFromName(const std::string& name) {
  for (std::size_t i = 0; i < kEventTypes; ++i) {
    if (name == kEventTypeNames[i]) return static_cast<EventType>(i);
  }
  return EventType::kNone;
}

namespace internal {

std::atomic<bool> g_flight_enabled{false};

namespace {

constexpr std::size_t kMaxRings = 512;

// One seqlock slot: `seq` is 2*s+1 while event s is being written and
// 2*s+2 once it is published. Payload fields are atomics so that
// cross-thread reads are race-free. The writer stores them with
// release and the reader loads them with acquire (plain moves on
// x86): a reader that sees any payload word of a newer event also sees
// that event's odd `seq`, so the re-check after the copy rejects it.
// Only the first `args` arguments are written (instants carry two,
// span ends one); readers zero the rest, which keeps the record path of
// the common events short.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> t_ns{0};
  std::atomic<const char*> name{""};
  std::atomic<std::uint32_t> meta{0};  // type | caller << 16 | args << 24
  std::atomic<std::uint64_t> arg[RingEvent::kArgs] = {};
};

struct ThreadRing {
  // Events ever appended; event s lives in slots[s % kRingCapacity].
  std::atomic<std::uint64_t> head{0};
  // Reset() raises this to head; readers see [base, head) only.
  std::atomic<std::uint64_t> base{0};
  int slot = 0;
  int tid = 0;
  Slot slots[kRingCapacity];
};

// Registry of every ring ever created. Slots are claimed under the
// mutex (first record per thread only) and published with a release
// store so readers iterate [0, g_ring_count) without locks.
ThreadRing* g_rings[kMaxRings] = {nullptr};
std::atomic<std::size_t> g_ring_count{0};
std::mutex g_create_mutex;

ThreadRing* CreateRing() {
  auto* ring = new ThreadRing();
  ring->tid = SigsafeTid();
  std::lock_guard<std::mutex> lock(g_create_mutex);
  const std::size_t idx = g_ring_count.load(std::memory_order_relaxed);
  // Registry full: the ring still records for its own thread but no
  // reader sees it. 512 threads is far beyond the pool sizes the
  // system runs with, so this is a safety valve, not a real path.
  if (idx >= kMaxRings) return ring;
  ring->slot = static_cast<int>(idx);
  g_rings[idx] = ring;
  g_ring_count.store(idx + 1, std::memory_order_release);
  return ring;
}

ThreadRing& ThisThreadRing() {
  static thread_local ThreadRing* t_ring = CreateRing();
  return *t_ring;
}

// Copies event `s` out of `ring` into `out`; false when the slot no
// longer (or not yet) holds it.
bool ReadSlot(const ThreadRing& ring, std::uint64_t s, RingEvent* out) {
  const Slot& slot = ring.slots[s % kRingCapacity];
  const std::uint64_t want = 2 * s + 2;
  if (slot.seq.load(std::memory_order_acquire) != want) return false;
  constexpr auto kAcquire = std::memory_order_acquire;
  out->seq = s;
  out->t_ns = slot.t_ns.load(kAcquire);
  out->name = slot.name.load(kAcquire);
  const std::uint32_t meta = slot.meta.load(kAcquire);
  out->type = static_cast<EventType>(meta & 0xffff);
  out->caller = (meta >> 16 & 1) != 0;
  const std::size_t args = meta >> 24;
  for (std::size_t i = 0; i < RingEvent::kArgs; ++i) {
    out->arg[i] = i < args ? slot.arg[i].load(kAcquire) : 0;
  }
  // Re-validate: an overwrite racing the loads above has bumped seq.
  return slot.seq.load(kAcquire) == want;
}

// Inlined into both entry points so RecordSlow's event never touches
// the stack.
[[gnu::always_inline]] inline void AppendInline(const RingEvent& event,
                                               std::size_t args) {
  ThreadRing& ring = ThisThreadRing();
  const std::uint64_t s = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[s % kRingCapacity];
  constexpr auto kRelease = std::memory_order_release;
  slot.seq.store(2 * s + 1, std::memory_order_relaxed);
  slot.t_ns.store(event.t_ns, kRelease);
  slot.name.store(event.name != nullptr ? event.name : "", kRelease);
  slot.meta.store(static_cast<std::uint32_t>(event.type) |
                      (event.caller ? 1u << 16 : 0u) |
                      static_cast<std::uint32_t>(args) << 24,
                  kRelease);
  for (std::size_t i = 0; i < args; ++i) {
    slot.arg[i].store(event.arg[i], kRelease);
  }
  slot.seq.store(2 * s + 2, kRelease);
  ring.head.store(s + 1, kRelease);
}

}  // namespace

void Append(const RingEvent& event, std::size_t args) {
  AppendInline(event, args < RingEvent::kArgs ? args : RingEvent::kArgs);
}

void RecordSlow(EventType type, const char* name, std::uint64_t arg0,
                std::uint64_t arg1) {
  AppendInline({.t_ns = SigsafeNowNs(),
                .name = name,
                .type = type,
                .arg = {arg0, arg1}},
               2);
}

}  // namespace internal

std::uint64_t ReadRings(RingVisitor& visitor) {
  std::uint64_t dropped = 0;
  const std::size_t n = internal::g_ring_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const internal::ThreadRing& ring = *internal::g_rings[i];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    std::uint64_t first = ring.base.load(std::memory_order_acquire);
    if (first > head) first = head;
    visitor.Thread(ring.slot, ring.tid, head - first);
    if (head - first > kRingCapacity) {
      dropped += head - kRingCapacity - first;
      first = head - kRingCapacity;
    }
    RingEvent event;
    for (std::uint64_t s = first; s < head; ++s) {
      if (internal::ReadSlot(ring, s, &event)) {
        visitor.Event(event);
      } else {
        ++dropped;
      }
    }
  }
  return dropped;
}

void FlightRecorder::Enable() {
  internal::g_flight_enabled.store(true, std::memory_order_release);
  SetPoolObserver(&PoolStatsCollector::Global());
}

void FlightRecorder::Disable() {
  internal::g_flight_enabled.store(false, std::memory_order_release);
  PoolObserver* const collector = &PoolStatsCollector::Global();
  if (GetPoolObserver() == collector) SetPoolObserver(nullptr);
}

void FlightRecorder::Reset() {
  const std::size_t n = internal::g_ring_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    internal::ThreadRing& ring = *internal::g_rings[i];
    ring.base.store(ring.head.load(std::memory_order_acquire),
                    std::memory_order_release);
  }
}

std::uint64_t FlightRecorder::TotalRecorded() {
  std::uint64_t total = 0;
  const std::size_t n = internal::g_ring_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const internal::ThreadRing& ring = *internal::g_rings[i];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t base = ring.base.load(std::memory_order_acquire);
    total += head > base ? head - base : 0;
  }
  return total;
}

std::vector<FlightRecorder::ThreadEvents> FlightRecorder::Snapshot() {
  struct Copier : RingVisitor {
    std::vector<ThreadEvents> threads;
    void Thread(int, int tid, std::uint64_t recorded) override {
      threads.push_back({tid, recorded, {}});
    }
    void Event(const RingEvent& event) override {
      FlightEvent copy;
      copy.t_ns = event.t_ns;
      copy.seq = event.seq;
      copy.arg0 = event.arg[0];
      copy.arg1 = event.arg[1];
      copy.type = event.type;
      std::size_t i = 0;
      for (; i + 1 < sizeof(copy.name) && event.name[i] != '\0'; ++i) {
        copy.name[i] = event.name[i];
      }
      copy.name[i] = '\0';
      threads.back().events.push_back(copy);
    }
  } copier;
  ReadRings(copier);
  return std::move(copier.threads);
}

}  // namespace dd::obs::diag
