#include "matching/matching_relation.h"

#include <algorithm>

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

void MatchingRelation::RemoveRows(const std::vector<std::uint32_t>& rows) {
  if (rows.empty()) return;
  const std::size_t m = pairs_.size();
  std::size_t write = 0;
  std::size_t next = 0;  // next index into `rows` to skip
  for (std::size_t read = 0; read < m; ++read) {
    if (next < rows.size() && rows[next] == read) {
      DD_CHECK(next + 1 == rows.size() || rows[next + 1] > rows[next]);
      ++next;
      continue;
    }
    if (write != read) {
      pairs_[write] = pairs_[read];
      for (auto& col : columns_) col.Set(write, col.Get(read));
    }
    ++write;
  }
  DD_CHECK_EQ(next, rows.size());
  pairs_.resize(write);
  for (auto& col : columns_) col.Resize(write);
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
