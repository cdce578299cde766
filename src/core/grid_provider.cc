#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "core/measure_provider.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

Result<std::unique_ptr<GridMeasureProvider>> GridMeasureProvider::Create(
    const MatchingRelation& matching, ResolvedRule rule,
    std::size_t max_cells) {
  // Build cost is the grid's entire scan budget; CountXY stays O(1) and
  // deliberately uninstrumented beyond the inherited ProviderStats.
  obs::TraceSpan span("grid_build");
  DD_ASSIGN_OR_RETURN(CountGrid histogram,
                      CountGrid::Create(matching.dmax(), rule.lhs.size(),
                                        rule.rhs.size(), max_cells));
  histogram.AddColumns(matching, rule);
  const std::size_t cells = histogram.num_cells();
  auto provider = std::make_unique<GridMeasureProvider>(std::move(histogram),
                                                        std::move(rule));
  obs::MetricsRegistry::Global().GetGauge("provider.grid_cells").Set(
      static_cast<double>(cells));
  obs::SetMemoryGauge("grid", provider->MemoryUsageBytes());
  DD_LOG(INFO) << "grid provider built: " << cells << " cells over "
               << matching.num_tuples() << " matching tuples";
  return provider;
}

GridMeasureProvider::GridMeasureProvider(CountGrid histogram,
                                         ResolvedRule rule)
    : rule_(std::move(rule)) {
  histogram.PrefixSum();
  total_ = histogram.Total();
  grid_ = std::make_shared<CountGrid>(std::move(histogram));
}

void GridMeasureProvider::Apply(const std::vector<Level>& added,
                                const std::vector<Level>& removed,
                                std::size_t width) {
  obs::TraceSpan span("incr/grid_apply");
  static obs::Counter& applies_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.grid_applies");
  static obs::Counter& merged_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.grid_tuples_merged");
  if (added.empty() && removed.empty()) return;
  DD_CHECK_GT(width, 0u);
  DD_CHECK_EQ(added.size() % width, 0u);
  DD_CHECK_EQ(removed.size() % width, 0u);
  const std::size_t num_added = added.size() / width;
  const std::size_t num_removed = removed.size() / width;
  DD_CHECK_GE(total_ + num_added, num_removed);
  total_ = total_ + num_added - num_removed;

  // The batch goes into a new grid, so clones keep the one they share.
  auto next = std::make_shared<CountGrid>(*grid_);
  next->Clear();
  next->AddRows(added.data(), num_added, width, rule_, +1);
  next->AddRows(removed.data(), num_removed, width, rule_, -1);
  next->PrefixSum();
  next->Merge(*grid_);
  grid_ = std::move(next);
  // The all-dmax corner counts every tuple.
  DD_CHECK_EQ(grid_->Total(), total_);
  applies_counter.Increment();
  merged_counter.Add(num_added + num_removed);
}

void GridMeasureProvider::SetLhs(const Levels& lhs) {
  ++stats_.lhs_evaluations;
  lhs_index_ = grid_->LhsIndex(lhs);
  current_lhs_ = lhs;
  lhs_count_ = grid_->LhsCount(lhs_index_);
  DD_CHECK_LE(lhs_count_, total_);
}

std::uint64_t GridMeasureProvider::ReadXY(const Levels& rhs) const {
  DD_CHECK_EQ(current_lhs_.size(), grid_->lhs_dims());
  const std::uint64_t count = grid_->Count(lhs_index_, rhs);
  DD_CHECK_LE(count, total_);
  return count;
}

std::uint64_t GridMeasureProvider::CountXY(const Levels& rhs) {
  ++stats_.xy_evaluations;
  return ReadXY(rhs);
}

std::uint64_t GridMeasureProvider::CountXYConcurrent(const Levels& rhs) const {
  return ReadXY(rhs);
}

std::unique_ptr<MeasureProvider> GridMeasureProvider::CloneForThread() const {
  auto clone = std::unique_ptr<GridMeasureProvider>(new GridMeasureProvider());
  clone->rule_ = rule_;
  clone->total_ = total_;
  clone->grid_ = grid_;
  return clone;
}

namespace {

// Smallest joint grid "auto" always accepts (8 MiB of cells).
constexpr std::size_t kAutoMinGridCells = std::size_t{1} << 20;

}  // namespace

std::string_view ResolveProviderKind(const MatchingRelation& matching,
                                     const ResolvedRule& rule,
                                     std::string_view kind) {
  if (kind != "auto") return kind;
  const std::size_t max_cells =
      std::min(std::max<std::size_t>(matching.num_tuples(), kAutoMinGridCells),
               GridMeasureProvider::kMaxCells);
  const std::size_t dims = rule.lhs.size() + rule.rhs.size();
  return CountGrid::NumCells(matching.dmax(), dims, max_cells).ok() ? "grid"
                                                                    : "scan";
}

Result<std::unique_ptr<MeasureProvider>> MakeMeasureProvider(
    const MatchingRelation& matching, const ResolvedRule& rule,
    std::string_view kind, std::size_t scan_threads) {
  kind = ResolveProviderKind(matching, rule, kind);
  if (kind == "scan") {
    return std::unique_ptr<MeasureProvider>(new ScanMeasureProvider(
        matching, rule, /*full_scan=*/true, scan_threads));
  }
  if (kind == "scan_subset") {
    return std::unique_ptr<MeasureProvider>(new ScanMeasureProvider(
        matching, rule, /*full_scan=*/false, scan_threads));
  }
  if (kind == "grid") {
    DD_ASSIGN_OR_RETURN(auto grid, GridMeasureProvider::Create(matching, rule));
    return std::unique_ptr<MeasureProvider>(std::move(grid));
  }
  return Status::InvalidArgument("unknown provider kind: " + std::string(kind));
}

}  // namespace dd
