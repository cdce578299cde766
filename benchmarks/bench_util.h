// Shared workload setup for the per-table / per-figure benchmark
// harnesses. Each harness regenerates one table or figure of the
// paper's evaluation section (§VI) on the synthetic stand-ins for the
// Cora / Restaurant / CiteSeer data sets (see DESIGN.md §3).
//
// Environment knobs (all harnesses):
//   DD_BENCH_PAIRS    — matching-relation size for fixed-size experiments
//                       (default 20000)
//   DD_BENCH_SCALE    — multiplies every data size (default 1.0)
//   DD_BENCH_THREADS  — comma list of worker-pool sizes for the
//                       thread-sweep harnesses, e.g. "1,2,4,8"
// All harnesses additionally accept --threads N (equivalent to
// DD_THREADS=N): it sets the process-wide DefaultThreads().

#ifndef DD_BENCHMARKS_BENCH_UTIL_H_
#define DD_BENCHMARKS_BENCH_UTIL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/determiner.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "matching/matching_relation.h"

namespace dd::bench {

// The four rules of the paper's experiments.
struct RuleId {
  int number;             // 1..4
  const char* label;      // "Rule 1: cora(author, title -> venue, year)"
};

inline constexpr RuleId kRules[] = {
    {1, "Rule 1: cora(author, title -> venue, year)"},
    {2, "Rule 2: cora(venue -> address, publisher, editor)"},
    {3, "Rule 3: restaurant(name, address -> city, type)"},
    {4, "Rule 4: citeseer(address, affiliation, description -> subject)"},
};

struct RuleWorkload {
  std::string label;
  RuleSpec rule;
  MatchingRelation matching;
};

// Builds the matching relation for one of the paper's rules with |M| =
// max_pairs matching tuples (dmax = 10, deterministic seeds).
RuleWorkload MakeRuleWorkload(int rule_number, std::size_t max_pairs);

// Reads DD_BENCH_PAIRS (default `fallback`), scaled by DD_BENCH_SCALE.
std::size_t BenchPairs(std::size_t fallback = 20000);

// Applies DD_BENCH_SCALE to a size.
std::size_t Scaled(std::size_t size);

// Applies a `--threads N` argument (any position) to the process-wide
// worker pool via SetDefaultThreads. Call first in main().
void ApplyThreadsArg(int argc, char** argv);

// Thread counts for the thread-sweep harnesses: the DD_BENCH_THREADS
// comma list when set, else `fallback` (empty fallback = {1, 2, 4, 8}).
std::vector<std::size_t> ThreadSweep(
    std::vector<std::size_t> fallback = {1, 2, 4, 8});

// Data-size sweep for the scalability figures (paper: 100k..1m; the
// defaults here are 20k..100k so the whole suite runs in minutes —
// raise DD_BENCH_SCALE to reproduce the paper's sizes).
std::vector<std::size_t> ScalabilitySizes();

// DetermineOptions for the named approach: "DA+PA", "DA+PAP", "DAP+PAP"
// (DA+PAP uses mid-first, DAP+PAP top-first, per the paper §V), always
// on the paper-faithful "scan" provider.
DetermineOptions ApproachOptions(const std::string& approach,
                                 std::size_t top_l = 1);

// Clears the global tracer and metrics registry so the next measured
// run's phase timings are isolated from setup work and earlier runs.
void ResetPhaseTimings();

// One-line JSON object of per-phase wall seconds under the "determine"
// span of the global tracer, e.g.
//   {"total_s": 1.23, "provider_build_s": 0.04, "prior_estimation_s":
//    0.11, "search_s": 1.07}
// Returns "{}" when no determine span has been recorded.
std::string PhaseTimingsJson();

// One-line JSON object with percentile estimates for every non-empty
// histogram in the global metrics registry, e.g.
//   {"pa.evaluated_per_lhs": {"count": 77, "p50": 9.2, "p95": 14.9,
//    "p99": 15.8}}
// Returns "{}" when no histogram has observations.
std::string HistogramPercentilesJson();

}  // namespace dd::bench

#endif  // DD_BENCHMARKS_BENCH_UTIL_H_
