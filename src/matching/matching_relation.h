// The matching relation M: one "matching tuple" per pair of data tuples,
// holding the pairwise distance on every attribute of interest, bucketed
// into the integer threshold domain {0, ..., dmax}. The paper
// pre-computes M once and evaluates every candidate threshold pattern
// against it; this implementation stores M columnar (one bit-packed,
// 64-byte-aligned level column per attribute — matching/packed_column.h)
// so that counting tuples satisfying a pattern is a tight sequential
// scan the SIMD kernels in core/simd_count.h can vectorize.

#ifndef DD_MATCHING_MATCHING_RELATION_H_
#define DD_MATCHING_MATCHING_RELATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "matching/packed_column.h"

namespace dd {

class MatchingRelation {
 public:
  MatchingRelation(std::vector<std::string> attribute_names, int dmax)
      : attribute_names_(std::move(attribute_names)),
        dmax_(dmax),
        columns_(attribute_names_.size(), PackedColumn(dmax)) {}

  std::size_t num_tuples() const { return pairs_.size(); }
  std::size_t num_attributes() const { return attribute_names_.size(); }
  int dmax() const { return dmax_; }

  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }

  // Index of attribute `name` within this matching relation, or NotFound.
  Result<std::size_t> IndexOf(std::string_view name) const;

  // Distance level of matching tuple `row` on attribute `attr`.
  Level level(std::size_t row, std::size_t attr) const {
    return columns_[attr].Get(row);
  }

  // Packed level column for attribute `attr` (scan-friendly; the SIMD
  // kernels read its raw words).
  const PackedColumn& column(std::size_t attr) const {
    return columns_[attr];
  }

  // The (i, j) data-tuple pair behind matching tuple `row` (i < j).
  const std::pair<std::uint32_t, std::uint32_t>& pair(std::size_t row) const {
    return pairs_[row];
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs() const {
    return pairs_;
  }

  // Appends a matching tuple. `levels` has one entry per attribute.
  void AddTuple(std::uint32_t i, std::uint32_t j,
                const std::vector<Level>& levels);

  // Direct-write construction for parallel builders: size the relation
  // once, then fill disjoint row ranges concurrently with SetTuple,
  // split by ParallelForTuples so that no two writers share a byte of a
  // 4-bit column. Writing row k with the k-th pair of the enumeration
  // reproduces the sequential AddTuple layout exactly, whatever the
  // chunking.
  void ResizeRows(std::size_t rows);
  void SetTuple(std::size_t row, std::uint32_t i, std::uint32_t j,
                const Level* levels);

  // Level vector of matching tuple `row` across all attributes (a
  // gather over the columnar storage; delta capture, not a hot path).
  std::vector<Level> RowLevels(std::size_t row) const;

  // Removes the matching tuples at `rows` (ascending, unique indices),
  // preserving the relative order of the survivors: one memmove per
  // surviving run of pairs, then PackedColumn::RemoveRows per column.
  // With `removed_levels` set, the removed tuples' levels are written
  // there row-major (rows.size() x num_attributes()).
  void RemoveRows(const std::vector<std::uint32_t>& rows,
                  Level* removed_levels = nullptr);

  // Removes every matching tuple whose pair references an id x with
  // live[x] == 0 (`live` covers every id in M), and appends the removed
  // pairs and their levels (row-major) to the outputs — the
  // incremental-maintenance delete path.
  void RemoveDeadPairs(
      const std::vector<std::uint8_t>& live,
      std::vector<std::pair<std::uint32_t, std::uint32_t>>* removed_pairs,
      std::vector<Level>* removed_levels);

  // Reorders matching tuples into ascending (i, j) pair order — the
  // order a from-scratch full-enumeration build produces. Counting is
  // order-independent; this exists so delta-maintained and rebuilt
  // relations can be compared for exact equality.
  void SortByPairs();

  void Reserve(std::size_t rows);

  // Heap bytes held by the columnar storage and the pair list (capacity,
  // not size — what the allocator actually charged us). Feeds the
  // mem.matching_bytes gauge (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    std::size_t bytes = 0;
    for (const auto& column : columns_) {
      bytes += column.capacity_bytes();
    }
    bytes += pairs_.capacity() * sizeof(pairs_[0]);
    return bytes;
  }

 private:
  std::vector<std::string> attribute_names_;
  int dmax_;
  std::vector<PackedColumn> columns_;  // columns_[attr].Get(row)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
};

// ParallelFor over the matching rows [first, last) with every chunk
// boundary on an even row: the two rows of a 4-bit PackedColumn byte
// always fall in the same chunk, so parallel SetTuple calls never write
// the same byte. fn(begin, end) receives absolute rows.
void ParallelForTuples(
    const char* phase, std::size_t first, std::size_t last,
    std::size_t threads,
    const std::function<void(std::size_t begin, std::size_t end)>& fn);

}  // namespace dd

#endif  // DD_MATCHING_MATCHING_RELATION_H_
