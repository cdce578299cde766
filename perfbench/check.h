// Output checks. Each returns an empty string when the output is
// correct and a one-line reason otherwise. They recompute everything
// from the paper's definitions over the matching relation M, sharing
// no code with the library's counting paths.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <string>
#include <vector>

#include "approx/refine.h"
#include "core/da.h"
#include "core/rule.h"
#include "detect/violation_detector.h"
#include "matching/matching_relation.h"

namespace perfbench {

// Recounts count(ϕ[X]) and count(ϕ[XY]) of every pattern by a row scan
// of M, derives D = |ϕ[X]|/|M|, C = |ϕ[XY]|/|ϕ[X]| and
// Q = Σ_A (dmax − ϕ[A]) / (|Y|·dmax), compares them with the reported
// measures, and checks the list is sorted by descending Ū.
std::string CheckPatterns(const dd::MatchingRelation& m, const dd::ResolvedRule& rule,
                          const std::vector<dd::DeterminedPattern>& patterns);

// Compares a violation list with a brute-force pass over M: the pairs
// within ϕ[X] on every X attribute and beyond ϕ[Y] on some Y attribute.
std::string CheckViolations(const dd::MatchingRelation& m, const dd::ResolvedRule& rule,
                            const dd::Pattern& pattern, const dd::PairList& got);

// True when both relations hold the same multiset of level vectors.
std::string CheckSameLevelHistogram(const dd::MatchingRelation& a,
                                    const dd::MatchingRelation& b);

// Every point estimate lies inside its own interval, Q is exact, and the
// list is sorted by descending Ū.
std::string CheckApprox(const dd::approx::ApproxDetermineResult& r, int dmax);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
