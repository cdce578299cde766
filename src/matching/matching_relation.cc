#include "matching/matching_relation.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/parallel.h"

namespace dd {

Result<std::size_t> MatchingRelation::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < attribute_names_.size(); ++i) {
    if (attribute_names_[i] == name) return i;
  }
  return Status::NotFound("attribute not in matching relation: " +
                          std::string(name));
}

void MatchingRelation::AddTuple(std::uint32_t i, std::uint32_t j,
                                const std::vector<Level>& levels) {
  DD_CHECK_EQ(levels.size(), columns_.size());
  for (std::size_t a = 0; a < levels.size(); ++a) {
    DD_CHECK_LE(static_cast<int>(levels[a]), dmax_);
    columns_[a].PushBack(levels[a]);
  }
  pairs_.emplace_back(i, j);
}

void MatchingRelation::ResizeRows(std::size_t rows) {
  for (auto& col : columns_) col.Resize(rows);
  pairs_.resize(rows);
}

void MatchingRelation::SetTuple(std::size_t row, std::uint32_t i,
                                std::uint32_t j, const Level* levels) {
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    columns_[a].Set(row, levels[a]);
  }
  pairs_[row] = {i, j};
}

void ParallelForTuples(
    const char* phase, std::size_t first, std::size_t last,
    std::size_t threads,
    const std::function<void(std::size_t begin, std::size_t end)>& fn) {
  if (first >= last) return;
  const std::size_t base = first & ~std::size_t{1};
  ParallelFor(phase, (last - base + 1) / 2, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                const std::size_t lo = std::max(first, base + 2 * begin);
                const std::size_t hi = std::min(last, base + 2 * end);
                if (lo < hi) fn(lo, hi);
              });
}

void MatchingRelation::Reserve(std::size_t rows) {
  for (auto& col : columns_) col.Reserve(rows);
  pairs_.reserve(rows);
}

std::vector<Level> MatchingRelation::RowLevels(std::size_t row) const {
  DD_CHECK_LT(row, pairs_.size());
  std::vector<Level> levels(columns_.size());
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    levels[a] = columns_[a].Get(row);
  }
  return levels;
}

void MatchingRelation::RemoveRows(const std::vector<std::uint32_t>& rows,
                                  Level* removed_levels) {
  if (rows.empty()) return;
  for (std::size_t k = 1; k < rows.size(); ++k) {
    DD_CHECK_LT(rows[k - 1], rows[k]);
  }
  DD_CHECK_LT(rows.back(), pairs_.size());
  auto* pairs = pairs_.data();
  pairs_.resize(CompactRuns(
      pairs_.size(), rows,
      [pairs](std::size_t dst, std::size_t from, std::size_t count) {
        // std::pair's assignment is user-provided, so it is not
        // trivially copyable, but two uint32_t move as raw bytes.
        std::memmove(static_cast<void*>(pairs + dst), pairs + from,
                     count * sizeof(*pairs));
      }));
  const std::size_t attrs = columns_.size();
  for (std::size_t a = 0; a < attrs; ++a) {
    columns_[a].RemoveRows(
        rows, removed_levels != nullptr ? removed_levels + a : nullptr, attrs);
  }
}

void MatchingRelation::RemoveDeadPairs(
    const std::vector<std::uint8_t>& live,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>* removed_pairs,
    std::vector<Level>* removed_levels) {
  std::vector<std::uint32_t> rows;
  for (std::size_t row = 0; row < pairs_.size(); ++row) {
    const auto [i, j] = pairs_[row];
    if ((live[i] & live[j]) != 0) continue;
    removed_pairs->emplace_back(i, j);
    rows.push_back(static_cast<std::uint32_t>(row));
  }
  const std::size_t first = removed_levels->size();
  removed_levels->resize(first + rows.size() * columns_.size());
  RemoveRows(rows, removed_levels->data() + first);
}

void MatchingRelation::SortByPairs() {
  const std::size_t m = pairs_.size();
  std::vector<std::uint32_t> order(m);
  for (std::size_t r = 0; r < m; ++r) order[r] = static_cast<std::uint32_t>(r);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return pairs_[a] < pairs_[b];
            });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_pairs(m);
  for (std::size_t r = 0; r < m; ++r) sorted_pairs[r] = pairs_[order[r]];
  pairs_ = std::move(sorted_pairs);
  std::vector<Level> sorted_col(m);
  for (auto& col : columns_) {
    for (std::size_t r = 0; r < m; ++r) sorted_col[r] = col.Get(order[r]);
    for (std::size_t r = 0; r < m; ++r) col.Set(r, sorted_col[r]);
  }
}

}  // namespace dd
