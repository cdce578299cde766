// The flight recorder: the process's one per-thread event ring
// (DESIGN.md §15). Every timestamped event the obs layer keeps lands
// here — TraceSpan begin/end, worker-pool chunks and invocations, and
// instants (incr batches, determinations, approx rounds, serve
// progress, watchdog stalls) — and three readers consume it: crash and
// live dumps, the pool-stats aggregation (obs/pool_stats.h) and the
// Chrome trace exporter (obs/export/chrome_trace.h).
//
// Each thread owns a fixed-size ring of kRingCapacity slots, allocated
// on its first record and never freed, so a thread that exited hours
// ago still has its last events in the black box. The owner is the
// only writer. A slot's sequence word is odd while it is being written
// and 2*s+2 once event s is published; every payload field is an
// atomic (release stores, acquire loads: plain moves on x86).
// ReadRings() validates the sequence word before and after
// copying a slot, so other threads — and the fatal-signal handler —
// read rings concurrently with their writers without a data race, and
// skip (and count) slots caught mid-overwrite. Event names are
// static-storage strings (literals, pool phase labels, and the
// watchdog's statically allocated heartbeat names), so a reader never
// follows a pointer into the heap and names come out at full length.
//
// One switch, FlightRecorder::Enable()/Disable(), turns recording on
// for all of it, including the dd::PoolObserver hook that feeds pool
// events. Disabled, every instrumented call site pays one relaxed load.

#ifndef DD_OBS_DIAG_FLIGHT_RECORDER_H_
#define DD_OBS_DIAG_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dd::obs::diag {

// Slots (80 bytes each, 1.25 MiB) per thread ring. The calling thread
// of a determination records the most: the search opens lhs_search and
// rhs_search per LHS candidate (4 events each), so a 3-attribute LHS
// at dmax 10 alone is 1 331 x 4. `ddtool determine --trace_json` at
// dmax 10 on 400-entity inputs records on its busiest thread 504
// (Rule 1), 64 (Rule 2), 509 (Rule 3) and 5 345 (Rule 4) events with
// DAP+PAP, at most 4 002 per thread with DA+PA; workers record under
// 10 each. 1 << 14 holds three Rule 4 runs; in long-running processes
// older events are overwritten and counted as dropped.
inline constexpr std::size_t kRingCapacity = 1 << 14;

enum class EventType : std::uint16_t {
  kNone = 0,
  kSpanBegin = 1,    // trace span entered (name = span name)
  kSpanEnd = 2,      // trace span left (arg0 = elapsed ns, t_ns = end)
  kBatch = 3,        // incr batch applied (arg0 = batch seq, arg1 = inserts)
  kDetermined = 4,   // determination finished (arg0 = patterns, arg1 = f64 bits)
  kApproxRound = 5,  // approx refinement round (arg0 = round, arg1 = pairs)
  kHeartbeat = 6,    // watchdog heartbeat transitions
  kServe = 7,        // serve/watch loop progress (arg0 = rows/seq)
  kStall = 8,        // watchdog detected / cleared a stall
  kCustom = 9,
  kPoolChunk = 10,   // pool chunk (name = phase, t_ns = end; see RingEvent)
  kPoolInvocation = 11,  // whole ParallelFor (name = phase, t_ns = end)
};

const char* EventTypeName(EventType type);
// Inverse of EventTypeName; kNone for unknown names.
EventType EventTypeFromName(const std::string& name);

// One ring event, as written and as read back. Argument layout by type:
//   kSpanEnd         arg[0] elapsed ns (begin = t_ns - arg[0])
//   kPoolChunk       arg[0] start ns, arg[1] invocation, arg[2] chunk,
//                    arg[3] begin, arg[4] end, arg[5] thread-CPU ns;
//                    caller = run by the invoking thread
//   kPoolInvocation  arg[0] start ns, arg[1] invocation, arg[2] chunks,
//                    arg[3] item count, arg[4] threads
//   instants         arg[0], arg[1] as documented on EventType
struct RingEvent {
  static constexpr std::size_t kArgs = 6;
  std::uint64_t seq = 0;   // per-thread sequence number (set by the ring)
  std::uint64_t t_ns = 0;  // CLOCK_MONOTONIC (== std::chrono::steady_clock)
  const char* name = "";   // static storage, full length
  EventType type = EventType::kNone;
  bool caller = false;
  std::uint64_t arg[kArgs] = {};
};

// Callbacks of the one ring reader. Async-signal-safe callers (the
// crash handler) must keep their overrides async-signal-safe too.
class RingVisitor {
 public:
  virtual ~RingVisitor() = default;
  // Before a ring's events: `slot` is the dense ring index (stable for
  // the thread's lifetime), `recorded` counts its events since Reset().
  virtual void Thread(int slot, int tid, std::uint64_t recorded) = 0;
  // Each retained event of that ring, oldest first.
  virtual void Event(const RingEvent& event) = 0;
};

// Walks every ring. Touches only preallocated rings and atomics — no
// locks, no allocation — so it is safe from a signal handler and
// concurrent with writers. Returns the events lost since Reset(): those
// overwritten by ring wrap-around plus those caught mid-overwrite.
std::uint64_t ReadRings(RingVisitor& visitor);

namespace internal {

extern std::atomic<bool> g_flight_enabled;

// Appends `event` (its seq is assigned here) to the calling thread's
// ring, whether or not recording is enabled. Only the first `args`
// arguments are stored; readers see the rest as 0.
void Append(const RingEvent& event, std::size_t args = RingEvent::kArgs);

void RecordSlow(EventType type, const char* name, std::uint64_t arg0,
                std::uint64_t arg1);

}  // namespace internal

// The ~1 ns disabled gate every instrumented call site pays.
inline bool FlightRecorderEnabled() {
  return internal::g_flight_enabled.load(std::memory_order_relaxed);
}

// Records one instant into the calling thread's ring, stamped now.
// `name` must have static storage duration; nullptr records "".
// No-op when disabled.
inline void FlightRecord(EventType type, const char* name,
                         std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
  if (!FlightRecorderEnabled()) return;
  internal::RecordSlow(type, name, arg0, arg1);
}

// Compact copy of one event for Snapshot(): the first two arguments and
// the name truncated to 15 chars + NUL.
struct FlightEvent {
  std::uint64_t t_ns = 0;
  std::uint64_t seq = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  char name[16] = {0};
  EventType type = EventType::kNone;
};

class FlightRecorder {
 public:
  // The one recording switch: rings, spans, instants, and the pool
  // observer (installs obs::PoolStatsCollector). Idempotent.
  static void Enable();
  static void Disable();

  // Logically clears every ring: events recorded so far stop being
  // visible to readers (rings keep their memory). Safe while recording.
  static void Reset();

  // Events recorded process-wide since the last Reset (includes events
  // already overwritten in their ring).
  static std::uint64_t TotalRecorded();

  struct ThreadEvents {
    int tid = 0;
    std::uint64_t recorded = 0;          // events since Reset()
    std::vector<FlightEvent> events;     // oldest first, newest last
  };
  // ReadRings() copied into per-thread vectors (normal context only).
  static std::vector<ThreadEvents> Snapshot();
};

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_FLIGHT_RECORDER_H_
