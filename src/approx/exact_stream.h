// Streaming exact grid build: fold every one of the N(N-1)/2 tuple
// pairs directly into a CountGrid (core/count_grid.h) without ever
// materializing the matching relation. Memory is O((dmax+1)^(|X|+|Y|))
// — independent of N — which is what lets the exact leg of the
// accuracy benchmarks run at row counts where a materialized M would
// not fit. One grid per ParallelFor chunk, merged in chunk order with
// CountGrid::Merge: results are bit-identical at any thread count
// (integer histogram adds, deterministic ParallelFor partition).

#ifndef DD_APPROX_EXACT_STREAM_H_
#define DD_APPROX_EXACT_STREAM_H_

#include <memory>

#include "common/result.h"
#include "core/measure_provider.h"
#include "core/rule.h"
#include "data/relation.h"
#include "matching/builder.h"

namespace dd::approx {

// Builds a GridMeasureProvider for `rule` over all pairs of `relation`.
// Attribute order is rule.AllAttributes() (LHS block first), matching
// the index layout GridMeasureProvider expects. Fails when the grid
// would exceed GridMeasureProvider::kMaxCells, on unresolvable
// attributes, or on attributes shared between the rule's sides.
Result<std::unique_ptr<MeasureProvider>> BuildStreamingGridProvider(
    const Relation& relation, const RuleSpec& rule,
    const MatchingOptions& matching);

}  // namespace dd::approx

#endif  // DD_APPROX_EXACT_STREAM_H_
