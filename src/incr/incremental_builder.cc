#include "incr/incremental_builder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd {

Result<IncrementalMatchingBuilder> IncrementalMatchingBuilder::Create(
    const Schema& schema, std::vector<std::string> attributes,
    IncrementalOptions options) {
  if (options.matching.max_pairs != 0) {
    return Status::InvalidArgument(
        "incremental maintenance needs the full pair set: max_pairs must be 0");
  }
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(schema, attributes, options.matching));
  return IncrementalMatchingBuilder(schema, std::move(attributes),
                                    std::move(options), std::move(resolved));
}

Result<MatchingDelta> IncrementalMatchingBuilder::ApplyBatch(
    const std::vector<std::vector<std::string>>& inserts,
    const std::vector<std::uint32_t>& deletes) {
  obs::TraceSpan span("incr/apply_delta");
  static obs::Counter& batches_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.batches");
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.pairs_recomputed");
  static obs::Counter& distances_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.distances_computed");
  static obs::Counter& removed_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.matching_rows_removed");

  // Validate the whole batch before mutating anything.
  const std::size_t arity = store_.schema().num_attributes();
  for (const auto& values : inserts) {
    if (values.size() != arity) {
      return Status::InvalidArgument(
          StrFormat("insert has %zu values, schema has %zu attributes",
                    values.size(), arity));
    }
  }
  std::vector<std::uint32_t> sorted_deletes = deletes;
  std::sort(sorted_deletes.begin(), sorted_deletes.end());
  for (std::size_t k = 0; k < sorted_deletes.size(); ++k) {
    if (k > 0 && sorted_deletes[k] == sorted_deletes[k - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate delete of tuple %u", sorted_deletes[k]));
    }
    if (!store_.IsLive(sorted_deletes[k])) {
      return Status::InvalidArgument(
          StrFormat("delete of unknown or dead tuple %u", sorted_deletes[k]));
    }
  }

  const std::size_t attrs = attributes_.size();
  MatchingDelta delta;
  delta.num_attributes = attrs;

  // Deletes first: retire the ids, then compact every matching tuple
  // that references a dead id out of M (capturing its levels so grid
  // consumers can subtract without re-deriving anything).
  if (!sorted_deletes.empty()) {
    for (std::uint32_t id : sorted_deletes) DD_CHECK(store_.Erase(id).ok());
    matching_.RemoveDeadPairs(store_.live(), &delta.removed_pairs,
                              &delta.removed_levels);
    std::erase_if(window_,
                  [this](std::uint32_t id) { return !store_.IsLive(id); });
  }

  // Inserts: new ids are larger than every existing id, so the window
  // stays ascending and the new tuple at position `row` pairs with all
  // positions before it — one Row call per kMaxRun of them.
  const std::uint64_t old = window_.size();
  for (const auto& values : inserts) {
    Result<std::uint32_t> id = store_.Insert(values);
    DD_CHECK(id.ok());  // Arity was validated above.
    window_.push_back(*id);
  }
  // Pair counts are 64-bit BY CONTRACT (matching/builder.h): b(b-1)/2
  // overflows 32-bit size types near b ≈ 93k.
  const std::uint64_t b = inserts.size();
  const auto start = [old](std::uint64_t k) {  // first delta pair of insert k
    return old * k + k * (k - 1) / 2;
  };
  const std::uint64_t total_new = start(b);
  delta.added_pairs.resize(total_new);
  delta.added_levels.resize(total_new * attrs);
  if (total_new > 0) {
    const PairLevelSource source(store_.relation(), resolved_,
                                 options_.matching, total_new,
                                 options_.threads, &window_);
    std::atomic<std::uint64_t> metric_calls{source.precomputed_distances()};
    const std::size_t m0 = matching_.num_tuples();
    matching_.ResizeRows(m0 + total_new);
    ParallelForTuples(
        "incr.delta_levels", m0, m0 + total_new, options_.threads,
        [&](std::size_t begin, std::size_t end) {
          std::uint32_t js[PairLevelSource::kMaxRun];
          std::uint64_t calls = 0;
          std::uint64_t k = 0;  // the insert owning delta pair p
          for (std::uint64_t p = begin - m0; p < end - m0;) {
            while (start(k + 1) <= p) ++k;
            const std::uint64_t row = old + k;
            const std::size_t count = std::min<std::uint64_t>(
                {PairLevelSource::kMaxRun, start(k + 1) - p, end - m0 - p});
            for (std::size_t r = 0; r < count; ++r) {
              js[r] = static_cast<std::uint32_t>(p - start(k) + r);
            }
            Level* levels = &delta.added_levels[p * attrs];
            source.Row(static_cast<std::uint32_t>(row), js, count, levels,
                       &calls);
            for (std::size_t r = 0; r < count; ++r, ++p) {
              delta.added_pairs[p] = {window_[js[r]], window_[row]};
              matching_.SetTuple(m0 + p, window_[js[r]], window_[row],
                                 levels + r * attrs);
            }
          }
          metric_calls.fetch_add(calls, std::memory_order_relaxed);
        });
    delta.distances_computed = metric_calls.load(std::memory_order_relaxed);
  }

  batches_counter.Increment();
  pairs_counter.Add(total_new);
  distances_counter.Add(delta.distances_computed);
  removed_counter.Add(delta.num_removed());
  DD_VLOG(1) << "incr batch: +" << b << " tuples / -" << sorted_deletes.size()
             << " tuples, " << total_new << " pairs computed, "
             << delta.num_removed() << " matching rows removed, |M|="
             << matching_.num_tuples();
  return delta;
}

MatchingRelation IncrementalMatchingBuilder::Rebuild() const {
  obs::TraceSpan span("incr/rebuild");
  const std::uint64_t n = window_.size();
  const std::uint64_t total = n * (n - 1) / 2;  // 64-bit (matching/builder.h)
  const PairLevelSource source(store_.relation(), resolved_,
                               options_.matching, total, options_.threads,
                               &window_);
  MatchingRelation out(attributes_, options_.matching.dmax);
  out.ResizeRows(total);
  FillPairRows(
      source, n, "incr.rebuild", 0, total,
      [](std::size_t row) { return std::uint64_t{row}; }, options_.threads,
      &out, window_.data());
  return out;
}

}  // namespace dd
