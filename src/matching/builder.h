// Pair-wise matching: computes the matching relation M from a data
// relation by evaluating a distance metric per attribute on every tuple
// pair (optionally a uniform sample of pairs, to bound |M| like the
// paper's 1,000,000-matching-tuple preparation) and bucketing raw
// distances into the threshold domain {0..dmax}.

#ifndef DD_MATCHING_BUILDER_H_
#define DD_MATCHING_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "matching/matching_relation.h"
#include "matching/value_cache.h"
#include "metric/metric.h"

namespace dd {

// How pairs enter the matching relation. kExact is the builder in this
// file: every pair, or a plain uniform `max_pairs` sample. kApprox
// selects the stratified near/tail build owned by
// approx::SampledMatchingBuilder (src/approx/sampled_builder.h), which
// carries estimation weights that a single MatchingRelation cannot
// express — BuildMatchingRelation therefore rejects kApprox instead of
// silently ignoring it.
enum class MatchingMode { kExact, kApprox };

struct MatchingOptions {
  // Build mode; see MatchingMode. Facades (ddtool, discover) route
  // kApprox to the approx subsystem.
  MatchingMode mode = MatchingMode::kExact;

  // Number of distance levels is dmax + 1 (levels 0..dmax). The paper's
  // experiments use a domain like {0, 1, ..., 10}.
  int dmax = 10;

  // Upper bound on |M|. 0 means all N(N-1)/2 pairs; otherwise a uniform
  // sample without replacement of exactly min(max_pairs, total) pairs.
  std::size_t max_pairs = 0;

  // Seed for pair sampling.
  std::uint64_t seed = 1;

  // Metric per attribute name; attributes not listed default to
  // "levenshtein" for string attributes and "numeric_abs" for numerics.
  std::map<std::string, std::string> metric_overrides;

  // Raw distances are mapped to levels as
  //   level = min(round(raw * scale), dmax).
  // Default scale is 1.0 for unbounded metrics (raw edit distance counts
  // directly) and dmax for normalized metrics (so [0,1] spreads over the
  // full domain). Overrides replace the default per attribute.
  std::map<std::string, double> scale_overrides;

  // Concurrency of the pair-distance computation. 0 = DefaultThreads()
  // (the --threads flag / DD_THREADS env). The produced relation is
  // bit-identical at any thread count.
  std::size_t threads = 0;

  // Value-pair distance cache (matching/value_cache.h): intern distinct
  // attribute values and compute each distinct (value_i, value_j)
  // distance once. Never changes the produced relation; disable only to
  // measure the uncached build.
  bool value_cache = true;

  // Per-attribute cell bound for the precomputed distinct-pair level
  // table (one byte per cell). Attributes whose table would exceed it
  // fall back to the equal-value shortcut alone.
  std::uint64_t value_cache_max_cells = std::uint64_t{1} << 26;
};

// Metric machinery resolved once per (schema, attributes, options):
// schema column of every matching attribute, its distance metric, and
// its level scale. Shared by the one-shot build below and the
// incremental builder (incr/incremental_builder.h), which keeps one
// resolution alive across many delta batches.
struct ResolvedMetrics {
  std::vector<std::size_t> attr_idx;  // schema columns, one per attribute
  std::vector<std::unique_ptr<DistanceMetric>> metrics;
  std::vector<double> scales;
  int dmax = 10;

  std::size_t num_attributes() const { return attr_idx.size(); }

  // Bucketed distance levels of the data-tuple pair (i, j) of
  // `relation`; `levels` must hold num_attributes() entries. Uses each
  // metric's BoundedDistance early-exit at the level-dmax raw cap.
  void ComputeLevels(const Relation& relation, std::uint32_t i,
                     std::uint32_t j, Level* levels) const;

  // Same, for a single attribute (position `a` in attr_idx).
  Level ComputeLevel(const Relation& relation, std::uint32_t i,
                     std::uint32_t j, std::size_t a) const;
};

// Resolves metrics and scales for `attributes` against `schema`. Fails
// on unknown attributes/metrics, non-positive scales, or a dmax outside
// [1, 255].
Result<ResolvedMetrics> ResolveMatchingMetrics(
    const Schema& schema, const std::vector<std::string>& attributes,
    const MatchingOptions& options);

// Maps one raw distance to a level (exposed for tests and the detector).
Level BucketDistance(double raw, double scale, int dmax);

// Decodes the k-th pair (0-based) of the row-major upper-triangular
// enumeration over n items into (i, j) with i < j. The builder chunks
// the triangular pair range by this global index, so any chunking
// reproduces the sequential pair order.
//
// Overflow note: pair indices are 64-bit BY CONTRACT. n(n-1)/2 exceeds
// uint32_t already at n ≈ 93k, so every call site must carry k (and any
// row-offset arithmetic) in std::uint64_t — regression-tested at
// n = 100k in tests/approx_test.cc.
std::pair<std::uint32_t, std::uint32_t> DecodeTriangularPair(std::uint64_t k,
                                                             std::uint64_t n);

// Inverse of DecodeTriangularPair: the global triangular index of pair
// (i, j), i < j < n. All arithmetic in 64 bits.
std::uint64_t EncodeTriangularPair(std::uint64_t i, std::uint64_t j,
                                   std::uint64_t n);

// Per-attribute cached level source: the precomputed distinct-pair
// table when it pays off, else interning with the equal-value shortcut
// and the metric's one-to-many rows over the interned values. With the
// cache disabled, the raw metric. All three produce identical levels.
struct AttrLevelSource {
  AttributeValueIndex index;                    // empty when cache disabled
  std::unique_ptr<ValuePairLevelTable> table;   // may be null
  std::unique_ptr<OneToManyDistances> rows;     // set iff no table
};

// Levels of data-tuple pairs through the value cache, one row at a
// time — the kernel shared by the one-shot build below, the streaming
// exact grid build, the sampled builder (src/approx) and incremental
// maintenance (src/incr). Holds references to `relation`, `resolved`
// and `rows`; all must outlive it, and no row may be added to
// `relation` meanwhile.
class PairLevelSource {
 public:
  // Longest run ForEachPairRun passes to one callback.
  static constexpr std::size_t kMaxRun = 1024;

  // `pairs_to_compute` is the expected number of pairs Row() will be
  // asked for — the payoff signal deciding whether an attribute's
  // distinct-pair table is worth precomputing (matching/value_cache.h).
  // Attributes without a table get their metric's one-to-many rows
  // (DistanceMetric::OneToMany) over the interned values instead.
  // With `rows` set, the source covers only those rows of `relation`
  // (interning costs O(|rows|)) and every row index Row() takes is a
  // position in *rows.
  PairLevelSource(const Relation& relation, const ResolvedMetrics& resolved,
                  const MatchingOptions& options,
                  std::uint64_t pairs_to_compute, std::size_t threads,
                  const std::vector<std::uint32_t>* rows = nullptr);

  // Levels of the pairs (i, js[k]) for k in [0, count), pair-major:
  // levels[k * num_attributes() + a]. Per attribute: a table lookup,
  // else level 0 for equal values and one OneToManyDistances::Row call
  // for the rest (at most kMaxRun pairs each). Ids may repeat. Adds the
  // number of metric evaluations performed to *metric_calls. Safe to
  // call concurrently.
  void Row(std::uint32_t i, const std::uint32_t* js, std::size_t count,
           Level* levels, std::uint64_t* metric_calls) const;

  std::uint64_t precomputed_distances() const {
    return precomputed_distances_;
  }

  std::size_t tables_built() const {
    std::size_t n = 0;
    for (const auto& a : attrs_) n += a.table != nullptr ? 1 : 0;
    return n;
  }

  // Heap bytes of the value cache: level tables, interned row ids and
  // value pointers, and the one-to-many rows' per-value data
  // (mem.value_cache_bytes).
  std::size_t cache_bytes() const;

 private:
  // Relation row of row index r (a position in the covered rows).
  std::uint32_t RelationRow(std::uint32_t r) const {
    return rows_ != nullptr ? (*rows_)[r] : r;
  }

  const Relation& relation_;
  const ResolvedMetrics& resolved_;
  const std::vector<std::uint32_t>* rows_;
  std::vector<AttrLevelSource> attrs_;
  std::uint64_t precomputed_distances_ = 0;
};

// Walks positions [begin, end) whose triangular pair indices index(p)
// over n rows ascend with p, in runs: fn(first, i, js, count) receives
// positions [first, first + count), all pairs of row i, with their
// second rows in js[0..count) and count <= PairLevelSource::kMaxRun.
// The first pair is decoded; later ones step from row to row by the
// row-start bound (row r + 1 starts n - 1 - r indices after row r),
// re-decoding only after long jumps, so no pair costs a sqrt.
template <typename Index, typename Fn>
void ForEachPairRun(std::uint64_t n, std::size_t begin, std::size_t end,
                    const Index& index, const Fn& fn) {
  if (begin >= end) return;
  constexpr int kMaxSteps = 16;
  std::uint32_t js[PairLevelSource::kMaxRun];
  std::uint64_t i = 0;
  std::uint64_t row_start = 0;   // index of pair (i, i + 1)
  std::uint64_t next_start = 0;  // index of pair (i + 1, i + 2)
  const auto seek = [&](std::uint64_t k) {
    i = DecodeTriangularPair(k, n).first;
    row_start = EncodeTriangularPair(i, i + 1, n);
    next_start = row_start + (n - 1 - i);
  };
  seek(index(begin));
  std::size_t first = begin;
  std::size_t count = 0;
  for (std::size_t p = begin; p < end; ++p) {
    const std::uint64_t k = index(p);
    if (k >= next_start) {
      if (count > 0) fn(first, static_cast<std::uint32_t>(i), js, count);
      count = 0;
      for (int step = 0; step < kMaxSteps && k >= next_start; ++step) {
        ++i;
        row_start = next_start;
        next_start += n - 1 - i;
      }
      if (k >= next_start) seek(k);
    }
    if (count == 0) first = p;
    js[count++] = static_cast<std::uint32_t>(i + 1 + (k - row_start));
    if (count == PairLevelSource::kMaxRun) {
      fn(first, static_cast<std::uint32_t>(i), js, count);
      count = 0;
    }
  }
  if (count > 0) fn(first, static_cast<std::uint32_t>(i), js, count);
}

// Fills rows [first, last) of `out` (already sized) with the levels of
// the pairs at ascending triangular indices index(first..last) over n
// rows, on `threads` workers. Chunks come from ParallelForTuples, so
// the result is bit-identical at any thread count. With `ids` set, the
// pair (i, j) is stored as (ids[i], ids[j]). Returns the number of
// metric evaluations performed.
template <typename Index>
std::uint64_t FillPairRows(const PairLevelSource& source, std::uint64_t n,
                           const char* phase, std::size_t first,
                           std::size_t last, const Index& index,
                           std::size_t threads, MatchingRelation* out,
                           const std::uint32_t* ids = nullptr) {
  const std::size_t num_attrs = out->num_attributes();
  std::atomic<std::uint64_t> metric_calls{0};
  ParallelForTuples(
      phase, first, last, threads, [&](std::size_t begin, std::size_t end) {
        std::vector<Level> levels(PairLevelSource::kMaxRun * num_attrs);
        std::uint64_t calls = 0;
        ForEachPairRun(n, begin, end, index,
                       [&](std::size_t row, std::uint32_t i,
                           const std::uint32_t* js, std::size_t count) {
                         source.Row(i, js, count, levels.data(), &calls);
                         for (std::size_t p = 0; p < count; ++p) {
                           out->SetTuple(row + p, ids ? ids[i] : i,
                                         ids ? ids[js[p]] : js[p],
                                         &levels[p * num_attrs]);
                         }
                       });
        metric_calls.fetch_add(calls, std::memory_order_relaxed);
      });
  return metric_calls.load(std::memory_order_relaxed);
}

// Builds M over `attributes` (the union of the rule's X and Y). Fails on
// unknown attributes/metrics or a dmax outside [1, 255].
Result<MatchingRelation> BuildMatchingRelation(
    const Relation& relation, const std::vector<std::string>& attributes,
    const MatchingOptions& options);

}  // namespace dd

#endif  // DD_MATCHING_BUILDER_H_
