#include "approx/exact_stream.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/grid_util.h"
#include "core/simd_count.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd::approx {

Result<std::unique_ptr<MeasureProvider>> BuildStreamingGridProvider(
    const Relation& relation, const RuleSpec& rule,
    const MatchingOptions& matching) {
  obs::TraceSpan span("approx_exact_stream");
  if (rule.lhs.empty() || rule.rhs.empty()) {
    return Status::InvalidArgument("rule needs attributes on both sides");
  }
  for (const std::string& x : rule.lhs) {
    if (std::find(rule.rhs.begin(), rule.rhs.end(), x) != rule.rhs.end()) {
      return Status::InvalidArgument("attribute on both rule sides: " + x);
    }
  }
  const std::vector<std::string> attributes = rule.AllAttributes();
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(relation.schema(), attributes, matching));

  const std::size_t base = static_cast<std::size_t>(matching.dmax) + 1;
  const std::size_t lhs_dims = rule.lhs.size();
  const std::size_t rhs_dims = rule.rhs.size();
  const std::size_t dims = lhs_dims + rhs_dims;
  DD_ASSIGN_OR_RETURN(const std::size_t joint_cells,
                      grid::GridCells(base, dims, std::size_t{1} << 27));
  std::size_t lhs_cells = 1;
  for (std::size_t d = 0; d < lhs_dims; ++d) lhs_cells *= base;

  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t threads =
      matching.threads == 0 ? DefaultThreads() : matching.threads;
  const PairLevelSource source(relation, resolved, matching, total_pairs,
                               threads);

  const std::size_t chunks = EffectiveChunks(total_pairs, threads);
  std::vector<std::vector<std::uint64_t>> joint_per_chunk(
      chunks, std::vector<std::uint64_t>(joint_cells, 0));
  std::vector<std::vector<std::uint64_t>> lhs_per_chunk(
      chunks, std::vector<std::uint64_t>(lhs_cells, 0));
  std::atomic<std::uint64_t> metric_calls{0};

  // Grid strides in the CreateFromHistograms layout: lhs dims
  // low-order, rhs high-order, so the first lhs strides double as the
  // marginal grid's strides (joint_cells <= 2^27 fits uint32).
  std::vector<std::uint32_t> strides(dims);
  {
    std::uint64_t stride = 1;
    for (std::size_t a = 0; a < dims; ++a) {
      strides[a] = static_cast<std::uint32_t>(stride);
      stride *= base;
    }
  }
  constexpr std::size_t kBatch = 1024;

  ParallelFor(
      "approx_exact_stream.pairs", total_pairs, threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t>& joint = joint_per_chunk[chunk];
        std::vector<std::uint64_t>& lhs_grid = lhs_per_chunk[chunk];
        std::vector<Level> levels(PairLevelSource::kMaxRun * dims);
        // Pair levels are transposed into per-attribute batch columns
        // so the vectorized cell-index kernel (one-byte-per-level
        // views) computes a whole batch of grid cells per call.
        std::vector<std::vector<std::uint8_t>> batch_cols(
            dims, std::vector<std::uint8_t>(kBatch));
        std::vector<simd::ColumnView> views(dims);
        for (std::size_t a = 0; a < dims; ++a) {
          views[a] = simd::ColumnView{batch_cols[a].data(), /*packed4=*/false};
        }
        std::vector<std::uint32_t> joint_idx(kBatch);
        std::vector<std::uint32_t> lhs_idx(kBatch);
        std::size_t filled = 0;
        const auto flush = [&] {
          simd::GridIndices(views.data(), strides.data(), dims, 0, filled,
                            joint_idx.data());
          simd::GridIndices(views.data(), strides.data(), lhs_dims, 0, filled,
                            lhs_idx.data());
          for (std::size_t p = 0; p < filled; ++p) {
            ++joint[joint_idx[p]];
            ++lhs_grid[lhs_idx[p]];
          }
          filled = 0;
        };
        std::uint64_t calls = 0;
        ForEachPairRun(
            n, begin, end, [](std::size_t k) { return std::uint64_t{k}; },
            [&](std::size_t, std::uint32_t i, const std::uint32_t* js,
                std::size_t count) {
              source.Row(i, js, count, levels.data(), &calls);
              for (std::size_t p = 0; p < count; ++p) {
                for (std::size_t a = 0; a < dims; ++a) {
                  batch_cols[a][filled] = levels[p * dims + a];
                }
                if (++filled == kBatch) flush();
              }
            });
        if (filled > 0) flush();
        metric_calls.fetch_add(calls, std::memory_order_relaxed);
      });

  std::vector<std::uint64_t> joint(joint_cells, 0);
  std::vector<std::uint64_t> lhs_grid(lhs_cells, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t idx = 0; idx < joint_cells; ++idx) {
      joint[idx] += joint_per_chunk[c][idx];
    }
    for (std::size_t idx = 0; idx < lhs_cells; ++idx) {
      lhs_grid[idx] += lhs_per_chunk[c][idx];
    }
  }

  obs::MetricsRegistry::Global()
      .GetCounter("matching.distances_computed")
      .Add(metric_calls.load(std::memory_order_relaxed));
  DD_LOG(INFO) << "streaming grid built: " << total_pairs << " pairs into "
               << joint_cells << " cells, threads=" << threads;
  DD_ASSIGN_OR_RETURN(
      auto provider,
      GridMeasureProvider::CreateFromHistograms(
          std::move(joint), std::move(lhs_grid), total_pairs, matching.dmax,
          lhs_dims, rhs_dims));
  return std::unique_ptr<MeasureProvider>(std::move(provider));
}

}  // namespace dd::approx
