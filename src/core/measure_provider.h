// MeasureProvider: answers the two counting queries every determination
// algorithm needs against the matching relation M —
//   count(b ⊨ ϕ[X])   (paper formula 1, the LHS support numerator)
//   count(b ⊨ ϕ[XY])  (paper formula 2, the confidence numerator)
// — plus instrumentation counters used by the pruning-rate experiments.
//
// ScanMeasureProvider is the paper-faithful implementation: every count
// is an O(M) pass over the matching tuples (the cost the pruning
// techniques of §V are designed to avoid). GridMeasureProvider is an
// extension: a prefix-sum grid over the (dmax+1)^c threshold lattice
// that answers each count in O(1) after an O(M + d^c) build. Both
// providers return identical counts (asserted by property tests), and
// the "auto" kind picks between them by grid size (ResolveProviderKind).

#ifndef DD_CORE_MEASURE_PROVIDER_H_
#define DD_CORE_MEASURE_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/count_grid.h"
#include "core/pattern.h"
#include "core/rule.h"
#include "matching/matching_relation.h"

namespace dd {

struct ProviderStats {
  // Number of evaluated ϕ[X]: every SetLhs call AND every
  // SetLhsWithKnownCount call. A known count makes the scan free, not
  // the evaluation, so all providers count it here — the field is the
  // number of LHS candidates processed, comparable across providers and
  // independent of how cheaply each one answers.
  std::uint64_t lhs_evaluations = 0;
  // Number of CountXY calls (one per evaluated ϕ[Y] candidate).
  std::uint64_t xy_evaluations = 0;
  // Matching tuples touched by QUERY-TIME scans (SetLhs / CountXY)
  // only. The grid provider answers queries from its prefix-sum grid
  // without touching M, so this stays 0 for it BY CONTRACT even
  // though its construction makes one O(M) histogram pass — build
  // cost is reported through the "grid_build" trace span and the
  // provider.grid_cells gauge instead, keeping this field the
  // per-query scan work that the paper's pruning experiments plot.
  std::uint64_t rows_scanned = 0;
};

class MeasureProvider {
 public:
  virtual ~MeasureProvider() = default;

  // Total number of matching tuples M.
  virtual std::uint64_t total() const = 0;

  // Fixes the current ϕ[X]; subsequent lhs_count()/CountXY() refer to it.
  virtual void SetLhs(const Levels& lhs) = 0;

  // Like SetLhs when the caller already knows count(b ⊨ ϕ[X]) — e.g.
  // DAP's descending-D ordering pass computed every LHS count up front.
  // Implementations that need no per-LHS state beyond the count can
  // skip their scan, but must still count the call in
  // stats_.lhs_evaluations (see ProviderStats); the default just
  // delegates to SetLhs.
  virtual void SetLhsWithKnownCount(const Levels& lhs,
                                    std::uint64_t known_count) {
    (void)known_count;
    SetLhs(lhs);
  }

  // count(b ⊨ ϕ[X]) for the current ϕ[X].
  virtual std::uint64_t lhs_count() const = 0;

  // The current ϕ[X] levels (last SetLhs argument). Observational only —
  // the EXPLAIN recorder reads it to label events; providers that track
  // no LHS state may return an empty vector.
  virtual const Levels& current_lhs() const {
    static const Levels kEmpty;
    return kEmpty;
  }

  // count(b ⊨ ϕ[XY]) for the current ϕ[X] and the given ϕ[Y].
  virtual std::uint64_t CountXY(const Levels& rhs) = 0;

  // ---- Concurrency extensions (DESIGN.md §12) ----

  // Thread-private clone for across-LHS parallel determination: shares
  // the (immutable) counting structures with `this` but owns its LHS
  // state and stats. Valid only while the parent is alive and not
  // mutated. nullptr = cloning unsupported; callers fall back to the
  // sequential path. Clones start with zeroed stats; merge them back
  // deterministically with AddStats.
  virtual std::unique_ptr<MeasureProvider> CloneForThread() const {
    return nullptr;
  }

  // True when CountXYConcurrent() may be called from several threads at
  // once (against one fixed ϕ[X]).
  virtual bool SupportsConcurrentCountXY() const { return false; }

  // Stats-free const counting against the current ϕ[X], used by the
  // speculative window in parallel PA/PAP (core/pa.cc). Must return
  // exactly what CountXY would. Callers account the committed subset of
  // these calls via AccountCommittedXY so ProviderStats equal the
  // sequential run's. Only valid when SupportsConcurrentCountXY().
  virtual std::uint64_t CountXYConcurrent(const Levels& rhs) const {
    (void)rhs;
    return 0;
  }

  // Matching tuples one CountXY call touches right now (0 for the grid
  // provider BY CONTRACT — see ProviderStats::rows_scanned). Used both
  // to replay rows_scanned for committed speculative work and as the
  // cost signal deciding whether within-LHS parallelism pays off.
  virtual std::uint64_t RowsPerCountXY() const { return 0; }

  // Accounts `calls` committed speculative evaluations exactly as if
  // CountXY had been called `calls` times.
  void AccountCommittedXY(std::uint64_t calls) {
    stats_.xy_evaluations += calls;
    stats_.rows_scanned += calls * RowsPerCountXY();
  }

  // Merges a clone's accumulated stats (field-wise sums, so the merge
  // total is independent of merge order).
  void AddStats(const ProviderStats& other) {
    stats_.lhs_evaluations += other.lhs_evaluations;
    stats_.xy_evaluations += other.xy_evaluations;
    stats_.rows_scanned += other.rows_scanned;
  }

  // Stats contract (shared with DaStats/PaStats, see da.h / pa.h):
  // stats ACCUMULATE across every SetLhs/CountXY call for the provider's
  // lifetime and are never reset implicitly. Callers that want a
  // specific window call ResetStats() at its start — the determination
  // facades (determiner.cc, special_cases.cc) reset after prior
  // estimation so reported stats cover search work only.
  const ProviderStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ProviderStats{}; }

 protected:
  ProviderStats stats_;
};

// Paper-faithful O(M)-per-count provider.
class ScanMeasureProvider : public MeasureProvider {
 public:
  // `full_scan` selects between re-scanning all of M for every CountXY
  // (exactly the paper's cost model; default) and scanning only the
  // tuples already known to satisfy ϕ[X] (a natural optimization that
  // preserves results). `threads` > 1 partitions every scan across that
  // many worker threads (counts are exact either way).
  ScanMeasureProvider(const MatchingRelation& matching, ResolvedRule rule,
                      bool full_scan = true, std::size_t threads = 1);

  std::uint64_t total() const override;
  void SetLhs(const Levels& lhs) override;
  // In full-scan mode the SetLhs scan only produces lhs_count, so a
  // known count makes it free; subset mode still needs the row list.
  void SetLhsWithKnownCount(const Levels& lhs,
                            std::uint64_t known_count) override;
  std::uint64_t lhs_count() const override { return lhs_count_; }
  const Levels& current_lhs() const override { return current_lhs_; }
  std::uint64_t CountXY(const Levels& rhs) override;

  std::unique_ptr<MeasureProvider> CloneForThread() const override;
  bool SupportsConcurrentCountXY() const override { return true; }
  std::uint64_t CountXYConcurrent(const Levels& rhs) const override;
  std::uint64_t RowsPerCountXY() const override {
    return full_scan_ ? matching_.num_tuples() : lhs_rows_.size();
  }

 private:
  const MatchingRelation& matching_;
  ResolvedRule rule_;
  bool full_scan_;
  std::size_t threads_;
  Levels current_lhs_;
  std::uint64_t lhs_count_ = 0;
  // Row indices satisfying the current ϕ[X]; used when !full_scan_.
  std::vector<std::uint32_t> lhs_rows_;
};

// O(1)-per-count provider over a cumulative CountGrid, kept up to date
// under added and removed tuples by Apply.
class GridMeasureProvider : public MeasureProvider {
 public:
  // Hard ceiling on every count grid: 1 GiB of uint64 cells.
  static constexpr std::size_t kMaxCells = std::size_t{1} << 27;

  // Fails when the grid (dmax+1)^(|X|+|Y|) would exceed `max_cells`.
  static Result<std::unique_ptr<GridMeasureProvider>> Create(
      const MatchingRelation& matching, ResolvedRule rule,
      std::size_t max_cells = kMaxCells);

  // Takes a plain histogram (CountGrid before PrefixSum) of `rule`'s
  // levels and prefix-sums it; total() is the number of tuples it
  // counts. The streaming exact build (approx/exact_stream.h) comes in
  // here without ever materializing M.
  GridMeasureProvider(CountGrid histogram, ResolvedRule rule);

  // Folds a batch of added and removed tuples, given as row-major level
  // rows of `width` levels that the rule's columns index into (a
  // MatchingDelta's added_levels / removed_levels), into the grid in
  // O(b·c + d^c): histogram the batch, prefix-sum it, add the live grid.
  // The result replaces the live grid, so clones taken before the call
  // keep reading the counts they were taken with.
  void Apply(const std::vector<Level>& added, const std::vector<Level>& removed,
             std::size_t width);

  std::uint64_t total() const override { return total_; }
  void SetLhs(const Levels& lhs) override;
  std::uint64_t lhs_count() const override { return lhs_count_; }
  const Levels& current_lhs() const override { return current_lhs_; }
  std::uint64_t CountXY(const Levels& rhs) override;

  // The grid is shared and never changed in place, so a clone is a few
  // scalars and a pointer — across-LHS parallel determination clones
  // freely.
  std::unique_ptr<MeasureProvider> CloneForThread() const override;
  bool SupportsConcurrentCountXY() const override { return true; }
  std::uint64_t CountXYConcurrent(const Levels& rhs) const override;

  // Heap bytes of the shared cumulative grid. Clones share the same
  // grid, so sum this once per provider family, not per clone. Feeds the
  // mem.grid_bytes and mem.delta_grid_bytes gauges (obs/resource.h).
  std::size_t MemoryUsageBytes() const { return grid_->MemoryUsageBytes(); }

 private:
  GridMeasureProvider() = default;

  // count(b ⊨ ϕ[XY]) for the current ϕ[X]; DD_CHECKs count <= total.
  std::uint64_t ReadXY(const Levels& rhs) const;

  ResolvedRule rule_;
  std::uint64_t total_ = 0;
  // The cumulative grid, shared with clones. Apply replaces it instead
  // of changing it.
  std::shared_ptr<const CountGrid> grid_;
  Levels current_lhs_;
  std::size_t lhs_index_ = 0;
  std::uint64_t lhs_count_ = 0;
};

// The provider kind `kind` stands for: "auto" resolves to "grid" when
// (dmax+1)^(|X|+|Y|) <= max(|M|, 2^20) cells (capped at
// GridMeasureProvider::kMaxCells), else to "scan"; any other kind is
// returned unchanged. The grid build is one pass over M plus
// O(dims * cells) prefix sums, so cells <= |M| keeps it at about the
// cost of a single scan, and its memory at max(8 B per matching tuple,
// 8 MiB); the 2^20 floor lets small matchings use the grid too.
std::string_view ResolveProviderKind(const MatchingRelation& matching,
                                     const ResolvedRule& rule,
                                     std::string_view kind);

// Convenience: builds the provider requested by name ("auto", "scan",
// "scan_subset", "grid"; "auto" via ResolveProviderKind).
// `scan_threads` applies to the scan-based kinds only.
Result<std::unique_ptr<MeasureProvider>> MakeMeasureProvider(
    const MatchingRelation& matching, const ResolvedRule& rule,
    std::string_view kind, std::size_t scan_threads = 1);

}  // namespace dd

#endif  // DD_CORE_MEASURE_PROVIDER_H_
