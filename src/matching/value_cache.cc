#include "matching/value_cache.h"

#include <string_view>
#include <unordered_map>

#include "common/parallel.h"
#include "matching/builder.h"

namespace dd {

AttributeValueIndex InternColumn(const Relation& relation,
                                 std::size_t attr_idx,
                                 const std::vector<std::uint32_t>* rows) {
  AttributeValueIndex index;
  const std::size_t n = rows != nullptr ? rows->size() : relation.num_rows();
  index.row_ids.resize(n);
  std::unordered_map<std::string_view, std::uint32_t> ids;
  ids.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::string& value =
        relation.at(rows != nullptr ? (*rows)[r] : r, attr_idx);
    const auto [it, inserted] = ids.emplace(
        std::string_view(value), static_cast<std::uint32_t>(index.values.size()));
    if (inserted) index.values.push_back(&value);
    index.row_ids[r] = it->second;
  }
  return index;
}

std::unique_ptr<ValuePairLevelTable> ValuePairLevelTable::Build(
    const AttributeValueIndex& index, const DistanceMetric& metric,
    double scale, int dmax, std::uint64_t pairs_to_compute,
    std::uint64_t max_cells, std::size_t threads) {
  const std::uint64_t d = index.distinct();
  if (d < 2) return nullptr;
  const std::uint64_t cells = d * (d - 1) / 2;
  // No payoff unless strictly fewer distinct pairs than row pairs.
  if (cells >= pairs_to_compute || cells > max_cells) return nullptr;

  std::unique_ptr<ValuePairLevelTable> table(new ValuePairLevelTable(d));
  table->table_.resize(cells);
  const double cap = static_cast<double>(dmax) / scale;
  Level* out = table->table_.data();
  const std::unique_ptr<OneToManyDistances> rows =
      metric.OneToMany(index.values, cap);
  ParallelFor("value_cache.build", cells, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                if (begin >= end) return;
                // The chunk covers the tail of row i, whole rows, then
                // the head of a last row, in runs of at most kRun cells.
                constexpr std::uint64_t kRun = 1024;
                std::uint32_t ids[kRun] = {};
                double raw[kRun] = {};
                auto [i, j] = DecodeTriangularPair(begin, d);
                for (std::size_t k = begin; k < end;) {
                  const std::uint64_t j_end =
                      std::min({d, j + (end - k), j + kRun});
                  const std::size_t count = j_end - j;
                  for (std::size_t r = 0; r < count; ++r) {
                    ids[r] = static_cast<std::uint32_t>(j + r);
                  }
                  rows->Row(i, ids, count, raw);
                  for (std::size_t r = 0; r < count; ++r) {
                    out[k++] = BucketDistance(raw[r], scale, dmax);
                  }
                  j = static_cast<std::uint32_t>(j_end);
                  if (j == d) {
                    ++i;
                    j = i + 1;
                  }
                }
              });
  return table;
}

}  // namespace dd
