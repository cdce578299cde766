#include "approx/exact_stream.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/count_grid.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
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

  const std::size_t lhs_dims = rule.lhs.size();
  const std::size_t dims = attributes.size();
  DD_ASSIGN_OR_RETURN(const CountGrid empty,
                      CountGrid::Create(matching.dmax, lhs_dims,
                                        dims - lhs_dims,
                                        GridMeasureProvider::kMaxCells));
  // Pair levels come in rule.AllAttributes() order (LHS block first), so
  // the rule's columns within a level row are 0..dims-1.
  ResolvedRule columns;
  for (std::size_t a = 0; a < dims; ++a) {
    (a < lhs_dims ? columns.lhs : columns.rhs).push_back(a);
  }

  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t threads =
      matching.threads == 0 ? DefaultThreads() : matching.threads;
  const PairLevelSource source(relation, resolved, matching, total_pairs,
                               threads);

  std::vector<CountGrid> per_chunk(EffectiveChunks(total_pairs, threads),
                                   empty);
  std::atomic<std::uint64_t> metric_calls{0};
  ParallelFor(
      "approx_exact_stream.pairs", total_pairs, threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        CountGrid& grid = per_chunk[chunk];
        std::vector<Level> levels(PairLevelSource::kMaxRun * dims);
        std::uint64_t calls = 0;
        ForEachPairRun(
            n, begin, end, [](std::size_t k) { return std::uint64_t{k}; },
            [&](std::size_t, std::uint32_t i, const std::uint32_t* js,
                std::size_t count) {
              source.Row(i, js, count, levels.data(), &calls);
              grid.AddRows(levels.data(), count, dims, columns, +1);
            });
        metric_calls.fetch_add(calls, std::memory_order_relaxed);
      });
  for (std::size_t c = 1; c < per_chunk.size(); ++c) {
    per_chunk[0].Merge(per_chunk[c]);
  }

  obs::MetricsRegistry::Global()
      .GetCounter("matching.distances_computed")
      .Add(metric_calls.load(std::memory_order_relaxed));
  DD_LOG(INFO) << "streaming grid built: " << total_pairs << " pairs into "
               << empty.num_cells() << " cells, threads=" << threads;
  auto provider = std::make_unique<GridMeasureProvider>(
      std::move(per_chunk[0]), std::move(columns));
  obs::MetricsRegistry::Global().GetGauge("provider.grid_cells").Set(
      static_cast<double>(empty.num_cells()));
  obs::SetMemoryGauge("grid", provider->MemoryUsageBytes());
  return std::unique_ptr<MeasureProvider>(std::move(provider));
}

}  // namespace dd::approx
