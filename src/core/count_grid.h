// CountGrid: the count grid behind the O(1) measure queries. One cell
// per combination of a rule's levels, (dmax+1)^(|X|+|Y|) cells, with
// the LHS dims low-order: cell ϕ sits at sum_d ϕ[d] * (dmax+1)^d over
// the dims in (lhs..., rhs...) order.
//
// A grid is first a plain histogram (one count per exact level
// combination), filled from matching columns (AddColumns) or from
// row-major level rows (AddRows, which also subtracts), and combined
// cell-wise with Merge — per-chunk grids of a parallel build, or a
// delta folded into a live grid. PrefixSum then turns it into the
// cumulative grid: cell ϕ holds count(b[A] <= ϕ[A] for all A), i.e.
// count(b ⊨ ϕ[XY]). Merge is linear, so it works on cumulative grids
// too. Every level is <= dmax, so the LHS count count(b ⊨ ϕ[X]) is the
// cumulative cell whose RHS levels are all dmax: the last base^|X|
// cells of the grid, read by LhsCount.
//
// Cells are uint64 and wrap modulo 2^64: AddRows with sign -1 may
// leave "negative" histogram cells, and prefix sums and merges of
// those are still exact, so a consistent sequence of adds and removes
// leaves every cumulative cell equal to its true non-negative count.

#ifndef DD_CORE_COUNT_GRID_H_
#define DD_CORE_COUNT_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/pattern.h"
#include "core/rule.h"
#include "matching/matching_relation.h"

namespace dd {

class CountGrid {
 public:
  // (dmax+1)^dims, or InvalidArgument when dmax is outside [1, 255] or
  // the grid would have more than `max_cells` cells (or more than a
  // uint32 cell index holds).
  static Result<std::size_t> NumCells(int dmax, std::size_t dims,
                                      std::size_t max_cells);

  // An all-zero grid over `lhs_dims` + `rhs_dims` levels in [0, dmax];
  // fails as NumCells does.
  static Result<CountGrid> Create(int dmax, std::size_t lhs_dims,
                                  std::size_t rhs_dims, std::size_t max_cells);

  // Histogram pass over the matching tuples: +1 at the cell of each
  // tuple's (rule.lhs..., rule.rhs...) levels.
  void AddColumns(const MatchingRelation& matching, const ResolvedRule& rule);

  // Histogram pass over `rows` row-major level rows of `width` levels
  // each: `sign` (+1 or -1) at the cell of each row's (rule.lhs...,
  // rule.rhs...) levels, where the rule's columns index into a row.
  // Every level must be <= dmax.
  void AddRows(const Level* levels, std::size_t rows, std::size_t width,
               const ResolvedRule& rule, int sign);

  // Cell-wise sum with a grid of the same shape.
  void Merge(const CountGrid& other);

  // Turns the histogram into the cumulative grid in place: one running
  // sum per dimension, O(dims * cells) adds.
  void PrefixSum();

  // Zeroes every cell.
  void Clear();

  // ---- Reads of the cumulative grid ----

  // Index of ϕ[X] among the base^|X| LHS combinations; DD_CHECKs the
  // arity and that every level is in [0, dmax].
  std::size_t LhsIndex(const Levels& lhs) const;
  // count(b ⊨ ϕ[X]) for the ϕ[X] at `lhs_index`.
  std::uint64_t LhsCount(std::size_t lhs_index) const {
    return cells_[cells_.size() - lhs_cells_ + lhs_index];
  }
  // count(b ⊨ ϕ[XY]) for the ϕ[X] at `lhs_index` and ϕ[Y] = `rhs`.
  std::uint64_t Count(std::size_t lhs_index, const Levels& rhs) const;
  // The all-dmax corner: every tuple the grid counts.
  std::uint64_t Total() const { return cells_.back(); }

  int dmax() const { return dmax_; }
  std::size_t lhs_dims() const { return lhs_dims_; }
  std::size_t rhs_dims() const { return strides_.size() - lhs_dims_; }
  std::size_t num_cells() const { return cells_.size(); }
  std::size_t MemoryUsageBytes() const {
    return cells_.capacity() * sizeof(std::uint64_t);
  }

 private:
  CountGrid() = default;

  int dmax_ = 0;
  std::size_t lhs_dims_ = 0;
  std::size_t lhs_cells_ = 1;  // base^lhs_dims
  // strides_[d] = base^d; every stride is < cells, which fits uint32.
  std::vector<std::uint32_t> strides_;
  std::vector<std::uint64_t> cells_;
};

}  // namespace dd

#endif  // DD_CORE_COUNT_GRID_H_
