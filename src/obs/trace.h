// Hierarchical scoped tracing with phase aggregation. A TraceSpan is an
// RAII scope named by a string literal; spans nested dynamically form a
// tree, and repeated spans with the same name under the same parent
// aggregate into one node (call count + total wall time), so per-LHS /
// per-candidate scopes stay O(1) memory no matter how many times they
// run. Node identity is (parent, name) with names compared by content,
// so the names must outlive the tracer (string literals in practice).
//
//   {
//     dd::obs::TraceSpan span("lhs_search");   // child of current scope
//     ...
//   }                                          // time charged on exit
//
// The current scope is thread-local; a span opened on a thread with no
// enclosing span becomes a root. Snapshot() renders the aggregated tree
// with self-vs-child time; Reset() clears it (only call between runs,
// with no spans open).

#ifndef DD_OBS_TRACE_H_
#define DD_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dd::obs {

// Aggregated view of one span node, produced by Tracer::Snapshot().
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;       // Times the scope was entered.
  double total_seconds = 0.0;    // Wall time including children.
  double self_seconds = 0.0;     // total minus direct children's total.
  std::vector<SpanStats> children;
};

// Snapshot of a whole span forest (one root per top-level phase).
struct TraceSnapshot {
  std::vector<SpanStats> roots;

  // Sum of root total_seconds — the traced share of the run.
  double TotalSeconds() const;
  // Depth-first lookup by name ("a/b" paths are not supported; the
  // first match in pre-order wins). Returns nullptr when absent.
  const SpanStats* Find(const std::string& name) const;
};

class Tracer {
 public:
  static Tracer& Global();

  // Tracing toggles: when disabled, TraceSpan construction is a cheap
  // no-op (one relaxed load). Enabled by default.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  TraceSnapshot Snapshot() const;

  // Drops all recorded spans. Must not race with open TraceSpans.
  void Reset();

 private:
  friend class TraceSpan;

  struct Node {
    const char* name = nullptr;
    Node* parent = nullptr;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::vector<std::unique_ptr<Node>> children;  // guarded by Tracer::mu_
  };

  Tracer();
  Node* ChildOf(Node* parent, const char* name);
  static SpanStats SnapshotNode(const Node& node);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // Guards children vectors of every node.
  std::unique_ptr<Node> root_;  // Sentinel; its children are the roots.
  // Generation counter: bumped by Reset() so that thread-local current
  // pointers from a previous tree are not followed into freed nodes.
  std::atomic<std::uint64_t> generation_{0};

  // Current innermost scope of this thread, valid for tl_generation_.
  static thread_local Node* tl_current_;
  static thread_local std::uint64_t tl_generation_;
};

// RAII scope. `name` must be a string with static storage duration.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer::Node* node_ = nullptr;  // nullptr when tracing is disabled.
  Tracer::Node* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;    // CLOCK_MONOTONIC, read once per span
  // Flight-recorder mirror (diag): set when the span recorded a begin
  // event, so the end event pairs up even if the recorder toggles
  // mid-span or the tracer itself is disabled.
  const char* name_ = nullptr;
  bool flight_ = false;
  // Saved CurrentSpanName() of the enclosing scope, restored on exit.
  const char* prev_published_ = nullptr;
};

// Innermost active TraceSpan name on this thread (a static-storage
// literal), or nullptr outside any span. Published unconditionally by
// TraceSpan — independent of the tracer and flight-recorder toggles —
// with plain thread-local stores, so it costs ~nothing and is
// async-signal-safe to read from a handler running on the same thread.
// The sampling profiler (src/obs/prof) tags samples with it.
const char* CurrentSpanName();

}  // namespace dd::obs

#endif  // DD_OBS_TRACE_H_
