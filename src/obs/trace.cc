#include "obs/trace.h"

#include <cstring>

#include "obs/diag/flight_recorder.h"
#include "obs/diag/sigsafe.h"

namespace dd::obs {

thread_local Tracer::Node* Tracer::tl_current_ = nullptr;
thread_local std::uint64_t Tracer::tl_generation_ = 0;

namespace {
// Innermost span name for the sampling profiler. Separate from
// tl_current_ so it is published even with the tracer disabled, and a
// plain pointer (not a Node*) so a signal handler can read it without
// chasing heap structures.
thread_local const char* tl_span_name = nullptr;
}  // namespace

const char* CurrentSpanName() { return tl_span_name; }

double TraceSnapshot::TotalSeconds() const {
  double total = 0.0;
  for (const SpanStats& root : roots) total += root.total_seconds;
  return total;
}

namespace {

const SpanStats* FindIn(const std::vector<SpanStats>& spans,
                        const std::string& name) {
  for (const SpanStats& span : spans) {
    if (span.name == name) return &span;
    if (const SpanStats* found = FindIn(span.children, name)) return found;
  }
  return nullptr;
}

}  // namespace

const SpanStats* TraceSnapshot::Find(const std::string& name) const {
  return FindIn(roots, name);
}

Tracer::Tracer() : root_(std::make_unique<Node>()) {
  root_->name = "";
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Node* Tracer::ChildOf(Node* parent, const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& child : parent->children) {
    // Pointer equality first: same call site reuses the same literal.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      return child.get();
    }
  }
  auto node = std::make_unique<Node>();
  node->name = name;
  node->parent = parent;
  Node* result = node.get();
  parent->children.push_back(std::move(node));
  return result;
}

SpanStats Tracer::SnapshotNode(const Node& node) {
  SpanStats stats;
  stats.name = node.name;
  stats.count = node.count.load(std::memory_order_relaxed);
  stats.total_seconds =
      static_cast<double>(node.total_ns.load(std::memory_order_relaxed)) * 1e-9;
  double child_total = 0.0;
  stats.children.reserve(node.children.size());
  for (const auto& child : node.children) {
    stats.children.push_back(SnapshotNode(*child));
    child_total += stats.children.back().total_seconds;
  }
  stats.self_seconds = stats.total_seconds - child_total;
  if (stats.self_seconds < 0.0) stats.self_seconds = 0.0;
  return stats;
}

TraceSnapshot Tracer::Snapshot() const {
  TraceSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.roots.reserve(root_->children.size());
  for (const auto& child : root_->children) {
    snapshot.roots.push_back(SnapshotNode(*child));
  }
  return snapshot;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  root_->children.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  // Invalidate this thread's scope pointer immediately; other threads
  // notice the generation bump on their next span.
  tl_current_ = nullptr;
  tl_generation_ = generation_.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char* name) : name_(name) {
  prev_published_ = tl_span_name;
  tl_span_name = name;
  // Spans mirror into the diag flight recorder independently of the
  // tracer toggle: crash dumps want the last phases even when the
  // aggregating tracer is off.
  flight_ = diag::FlightRecorderEnabled();
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    const std::uint64_t generation =
        tracer.generation_.load(std::memory_order_relaxed);
    if (Tracer::tl_generation_ != generation) {
      Tracer::tl_current_ = nullptr;
      Tracer::tl_generation_ = generation;
    }
    Tracer::Node* parent = Tracer::tl_current_ != nullptr
                               ? Tracer::tl_current_
                               : tracer.root_.get();
    node_ = tracer.ChildOf(parent, name);
    parent_ = Tracer::tl_current_;
    Tracer::tl_current_ = node_;
  }
  if (!flight_ && node_ == nullptr) return;
  // One clock read per boundary, shared by the tracer and the ring, so
  // exported begin/end pairs nest exactly.
  start_ns_ = diag::SigsafeNowNs();
  if (flight_) {
    diag::internal::Append({.t_ns = start_ns_,
                            .name = name,
                            .type = diag::EventType::kSpanBegin},
                           /*args=*/0);
  }
}

TraceSpan::~TraceSpan() {
  tl_span_name = prev_published_;
  if (!flight_ && node_ == nullptr) return;
  const std::uint64_t end_ns = diag::SigsafeNowNs();
  const std::uint64_t elapsed = end_ns - start_ns_;
  if (flight_) {
    diag::internal::Append({.t_ns = end_ns,
                            .name = name_,
                            .type = diag::EventType::kSpanEnd,
                            .arg = {elapsed}},
                           /*args=*/1);
  }
  if (node_ == nullptr) return;
  node_->count.fetch_add(1, std::memory_order_relaxed);
  node_->total_ns.fetch_add(elapsed, std::memory_order_relaxed);
  Tracer& tracer = Tracer::Global();
  if (Tracer::tl_generation_ ==
      tracer.generation_.load(std::memory_order_relaxed)) {
    Tracer::tl_current_ = parent_;
  }
}

}  // namespace dd::obs
