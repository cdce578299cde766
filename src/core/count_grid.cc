#include "core/count_grid.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/simd_count.h"

namespace dd {

namespace {

// Rows per GridIndices call in AddColumns.
constexpr std::size_t kColumnBlock = 4096;

// The column of grid dim `d`: LHS dims first, then RHS.
std::size_t RuleColumn(const ResolvedRule& rule, std::size_t d) {
  return d < rule.lhs.size() ? rule.lhs[d] : rule.rhs[d - rule.lhs.size()];
}

}  // namespace

Result<std::size_t> CountGrid::NumCells(int dmax, std::size_t dims,
                                        std::size_t max_cells) {
  if (dmax < 1 || dmax > 255) {
    return Status::InvalidArgument(StrFormat("dmax %d outside [1, 255]", dmax));
  }
  const std::size_t base = static_cast<std::size_t>(dmax) + 1;
  max_cells = std::min<std::size_t>(max_cells,
                                    std::numeric_limits<std::uint32_t>::max());
  std::size_t cells = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    if (cells > max_cells / base) {
      return Status::InvalidArgument(
          "grid would exceed the max_cells memory bound");
    }
    cells *= base;
  }
  if (cells > max_cells) {
    return Status::InvalidArgument(
        "grid would exceed the max_cells memory bound");
  }
  return cells;
}

Result<CountGrid> CountGrid::Create(int dmax, std::size_t lhs_dims,
                                    std::size_t rhs_dims,
                                    std::size_t max_cells) {
  DD_ASSIGN_OR_RETURN(std::size_t cells,
                      NumCells(dmax, lhs_dims + rhs_dims, max_cells));
  CountGrid grid;
  grid.dmax_ = dmax;
  grid.lhs_dims_ = lhs_dims;
  std::uint32_t stride = 1;
  for (std::size_t d = 0; d < lhs_dims + rhs_dims; ++d) {
    if (d == lhs_dims) grid.lhs_cells_ = stride;
    grid.strides_.push_back(stride);
    stride *= static_cast<std::uint32_t>(dmax + 1);
  }
  if (rhs_dims == 0) grid.lhs_cells_ = cells;
  grid.cells_.assign(cells, 0);
  return grid;
}

void CountGrid::AddColumns(const MatchingRelation& matching,
                           const ResolvedRule& rule) {
  DD_CHECK_EQ(matching.dmax(), dmax_);
  DD_CHECK_EQ(rule.lhs.size(), lhs_dims_);
  DD_CHECK_EQ(rule.rhs.size(), rhs_dims());
  const std::size_t dims = strides_.size();
  std::vector<simd::ColumnView> views(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    views[d] = simd::View(matching.column(RuleColumn(rule, d)));
  }
  // Cell indices come from the vector kernel in blocks; the increments
  // stay scalar — they scatter, and conflicts would be frequent.
  const std::size_t m = matching.num_tuples();
  std::vector<std::uint32_t> idx(std::min(kColumnBlock, m));
  for (std::size_t row = 0; row < m; row += kColumnBlock) {
    const std::size_t n = std::min(kColumnBlock, m - row);
    simd::GridIndices(views.data(), strides_.data(), dims, row, row + n,
                      idx.data());
    for (std::size_t i = 0; i < n; ++i) ++cells_[idx[i]];
  }
}

void CountGrid::AddRows(const Level* levels, std::size_t rows,
                        std::size_t width, const ResolvedRule& rule,
                        int sign) {
  DD_CHECK(sign == 1 || sign == -1);
  DD_CHECK_EQ(rule.lhs.size(), lhs_dims_);
  DD_CHECK_EQ(rule.rhs.size(), rhs_dims());
  const std::size_t dims = strides_.size();
  std::vector<std::size_t> columns(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    columns[d] = RuleColumn(rule, d);
    DD_CHECK_LT(columns[d], width);
  }
  // One multiply-add per level straight from the row: transposing rows
  // into columns for the vector kernel measured slower.
  const std::uint64_t step = static_cast<std::uint64_t>(std::int64_t{sign});
  for (std::size_t r = 0; r < rows; ++r, levels += width) {
    std::size_t idx = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      idx += std::size_t{levels[columns[d]]} * strides_[d];
    }
    cells_[idx] += step;
  }
}

void CountGrid::Merge(const CountGrid& other) {
  DD_CHECK_EQ(other.dmax_, dmax_);
  DD_CHECK_EQ(other.lhs_dims_, lhs_dims_);
  DD_CHECK_EQ(other.cells_.size(), cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) cells_[c] += other.cells_[c];
}

void CountGrid::PrefixSum() {
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t stride = 1;
  for (std::size_t d = 0; d < strides_.size(); ++d) {
    // Along dimension d, cell i accumulates its predecessor i - stride
    // whenever its d-coordinate is non-zero. Visiting i in ascending
    // order makes each run of base cells a running sum.
    const std::size_t block = stride * base;
    for (std::size_t start = 0; start < cells_.size(); start += block) {
      for (std::size_t i = start + stride; i < start + block; ++i) {
        cells_[i] += cells_[i - stride];
      }
    }
    stride = block;
  }
}

void CountGrid::Clear() { std::fill(cells_.begin(), cells_.end(), 0); }

std::size_t CountGrid::LhsIndex(const Levels& lhs) const {
  DD_CHECK_EQ(lhs.size(), lhs_dims_);
  std::size_t idx = 0;
  for (std::size_t d = 0; d < lhs_dims_; ++d) {
    DD_CHECK_GE(lhs[d], 0);
    DD_CHECK_LE(lhs[d], dmax_);
    idx += static_cast<std::size_t>(lhs[d]) * strides_[d];
  }
  return idx;
}

std::uint64_t CountGrid::Count(std::size_t lhs_index, const Levels& rhs) const {
  DD_CHECK_EQ(rhs.size(), rhs_dims());
  std::size_t idx = lhs_index;
  for (std::size_t d = 0; d < rhs.size(); ++d) {
    DD_CHECK_GE(rhs[d], 0);
    DD_CHECK_LE(rhs[d], dmax_);
    idx += static_cast<std::size_t>(rhs[d]) * strides_[lhs_dims_ + d];
  }
  return cells_[idx];
}

}  // namespace dd
