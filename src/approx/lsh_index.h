// Near-pair candidate generation for the stratified approximate build:
// enumerates row pairs likely to sit in the low-level (small-distance)
// cells of the matching relation, so those influential-but-rare pairs
// are counted exactly while the uniform tail sample covers the rest.
//
// Correctness note (why this can be aggressive): stratified estimation
// is valid for ANY near stratum — the tail sampler excludes exactly the
// surfaced pairs and the estimator weights the remainder, so blocking
// recall affects only estimator VARIANCE, never its validity. Caps,
// bucket skips, and family heuristics below are therefore safe; what is
// dropped is counted in LshStats and the approx.blocking_dropped
// counter instead of silently vanishing.
//
// Schemes by BlockingFamily (metric/metric.h):
//  * kTokenSet  — minhash banding over whitespace token sets.
//  * kQGram     — minhash banding over the value's q-gram set.
//  * kEdit      — minhash banding over 2-grams, with a length bucket
//                 folded into each band key (|len(a)-len(b)| lower-
//                 bounds edit distance, so distant length buckets can
//                 never be near). Each value goes under two length
//                 tags per band, 2·lb+2 and 2·lb+5, meant to bridge
//                 adjacent buckets; an even tag never equals an odd
//                 one, so only values of one length bucket collide.
//  * kNumeric   — sort the distinct values that parse as finite
//                 numbers, pair each with its `window` nearest
//                 neighbors.
//  * kNone      — the attribute contributes no candidates.
//
// Everything operates on distinct values (matching/value_cache.h
// interning) and expands value-id pairs to row pairs at the end. Both
// kinds of pair are grouped by their first id into short sorted lists
// (a count pass and a scatter pass), so no sort spans all pairs. All
// hashing is seeded and the output is a sorted, deduplicated, capped
// list of triangular pair indices — deterministic for a given relation
// and options at any thread count.

#ifndef DD_APPROX_LSH_INDEX_H_
#define DD_APPROX_LSH_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "matching/builder.h"

namespace dd::approx {

struct LshOptions {
  bool enabled = true;
  std::size_t bands = 8;       // minhash bands per attribute
  std::size_t band_rows = 2;   // hash rows per band (bands*band_rows sigs)
  std::size_t max_bucket = 64;      // skip buckets with more distinct values
  std::size_t numeric_window = 8;   // sorted-neighbor window (kNumeric)
  // Global cap on surfaced near pairs: the sorted candidate list is
  // truncated to this prefix (overflow counted in LshStats::dropped).
  std::uint64_t max_candidates = std::uint64_t{1} << 21;
  std::uint64_t hash_seed = 0x9e3779b97f4a7c15ull;
};

struct LshStats {
  std::uint64_t raw_pairs = 0;        // row pairs expanded (pre-dedup)
  std::uint64_t candidate_pairs = 0;  // surfaced (post-dedup, pre-cap)
  std::uint64_t dropped = 0;          // cut by max_candidates / expansion cap
  std::uint64_t skipped_buckets = 0;  // buckets over max_bucket
};

// Collects candidate near row pairs across all attributes of
// `resolved`, as sorted unique triangular indices over
// relation.num_rows() rows. `stats` may be null.
std::vector<std::uint64_t> CollectNearPairs(const Relation& relation,
                                            const ResolvedMetrics& resolved,
                                            const LshOptions& options,
                                            LshStats* stats);

}  // namespace dd::approx

#endif  // DD_APPROX_LSH_INDEX_H_
