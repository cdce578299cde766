#include "core/measure_provider.h"

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/count_grid.h"
#include "core/determiner.h"
#include "core/measures.h"
#include "core/result_io.h"
#include "core/special_cases.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::MakeMatching;
using testutil::RandomMatching;

MatchingRelation TinyMatching() {
  // Columns: x, y. dmax = 4.
  return MakeMatching({"x", "y"}, 4,
                      {{0, 0}, {0, 4}, {1, 1}, {2, 3}, {4, 0}, {4, 4}});
}

ResolvedRule XyRule() { return ResolvedRule{{0}, {1}}; }

TEST(ScanProviderTest, CountsMatchManualEnumeration) {
  MatchingRelation m = TinyMatching();
  ScanMeasureProvider provider(m, XyRule());
  EXPECT_EQ(provider.total(), 6u);

  provider.SetLhs({1});
  EXPECT_EQ(provider.lhs_count(), 3u);  // rows with x <= 1
  EXPECT_EQ(provider.CountXY({0}), 1u);  // (0,0)
  EXPECT_EQ(provider.CountXY({1}), 2u);  // (0,0), (1,1)
  EXPECT_EQ(provider.CountXY({4}), 3u);

  provider.SetLhs({4});
  EXPECT_EQ(provider.lhs_count(), 6u);
  EXPECT_EQ(provider.CountXY({3}), 4u);
}

TEST(ScanProviderTest, SubsetModeAgreesWithFullScan) {
  MatchingRelation m = RandomMatching(3, 8, 500, 17);
  ResolvedRule rule{{0, 1}, {2}};
  ScanMeasureProvider full(m, rule, /*full_scan=*/true);
  ScanMeasureProvider subset(m, rule, /*full_scan=*/false);
  for (int x0 = 0; x0 <= 8; x0 += 2) {
    for (int x1 = 0; x1 <= 8; x1 += 3) {
      full.SetLhs({x0, x1});
      subset.SetLhs({x0, x1});
      EXPECT_EQ(full.lhs_count(), subset.lhs_count());
      for (int y = 0; y <= 8; ++y) {
        EXPECT_EQ(full.CountXY({y}), subset.CountXY({y}))
            << x0 << "," << x1 << "," << y;
      }
    }
  }
}

TEST(GridProviderTest, AgreesWithScanProviderExhaustively) {
  MatchingRelation m = RandomMatching(2, 6, 300, 23);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider scan(m, rule);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid.value()->total(), scan.total());
  for (int x = 0; x <= 6; ++x) {
    scan.SetLhs({x});
    grid.value()->SetLhs({x});
    EXPECT_EQ(scan.lhs_count(), grid.value()->lhs_count()) << x;
    for (int y = 0; y <= 6; ++y) {
      EXPECT_EQ(scan.CountXY({y}), grid.value()->CountXY({y}))
          << x << "," << y;
    }
  }
}

TEST(GridProviderTest, ThreeAttributesAgree) {
  MatchingRelation m = RandomMatching(3, 5, 400, 29);
  ResolvedRule rule{{0, 2}, {1}};
  ScanMeasureProvider scan(m, rule);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  for (int x0 = 0; x0 <= 5; ++x0) {
    for (int x1 = 0; x1 <= 5; ++x1) {
      scan.SetLhs({x0, x1});
      grid.value()->SetLhs({x0, x1});
      ASSERT_EQ(scan.lhs_count(), grid.value()->lhs_count());
      for (int y = 0; y <= 5; ++y) {
        ASSERT_EQ(scan.CountXY({y}), grid.value()->CountXY({y}));
      }
    }
  }
}

TEST(GridProviderTest, RejectsOversizedGrid) {
  MatchingRelation m = RandomMatching(6, 200, 10, 31);
  ResolvedRule rule{{0, 1, 2}, {3, 4, 5}};
  EXPECT_FALSE(GridMeasureProvider::Create(m, rule, /*max_cells=*/1000).ok());
}

TEST(ProviderStatsTest, CountersTrackWork) {
  MatchingRelation m = TinyMatching();
  ScanMeasureProvider provider(m, XyRule());
  provider.SetLhs({2});
  provider.CountXY({2});
  provider.CountXY({3});
  EXPECT_EQ(provider.stats().lhs_evaluations, 1u);
  EXPECT_EQ(provider.stats().xy_evaluations, 2u);
  EXPECT_EQ(provider.stats().rows_scanned, 18u);  // 3 scans x 6 rows
  provider.ResetStats();
  EXPECT_EQ(provider.stats().xy_evaluations, 0u);
}

TEST(ProviderStatsTest, KnownCountPathCountsLhsEvaluations) {
  // SetLhsWithKnownCount must be counted in lhs_evaluations on every
  // provider — full-scan, subset, and grid — exactly like SetLhs, so
  // the counter always means "LHS candidates processed" (DAP hands the
  // provider precomputed D(ϕ) counts through this path, and stats must
  // not depend on which entry point the search used).
  MatchingRelation m = TinyMatching();
  ResolvedRule rule = XyRule();
  ScanMeasureProvider full(m, rule, /*full_scan=*/true);
  ScanMeasureProvider subset(m, rule, /*full_scan=*/false);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  MeasureProvider* providers[] = {&full, &subset, grid.value().get()};
  for (MeasureProvider* provider : providers) {
    provider->SetLhs({2});
    const std::uint64_t known_count = provider->lhs_count();
    provider->ResetStats();
    provider->SetLhsWithKnownCount({2}, known_count);
    provider->CountXY({3});
    EXPECT_EQ(provider->stats().lhs_evaluations, 1u);
    EXPECT_EQ(provider->lhs_count(), known_count);
  }
}

TEST(ProviderStatsTest, GridNeverScansRows) {
  // rows_scanned counts query-time scans only; the grid provider
  // answers everything from its prefix-sum grid, so the counter must
  // stay 0 by contract (build cost is reported via the grid_build span
  // and provider.grid_cells gauge, not here).
  MatchingRelation m = RandomMatching(2, 6, 200, 37);
  ResolvedRule rule{{0}, {1}};
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  for (int x = 0; x <= 6; ++x) {
    grid.value()->SetLhs({x});
    grid.value()->SetLhsWithKnownCount({x}, grid.value()->lhs_count());
    for (int y = 0; y <= 6; ++y) grid.value()->CountXY({y});
  }
  EXPECT_EQ(grid.value()->stats().rows_scanned, 0u);
  EXPECT_GT(grid.value()->stats().lhs_evaluations, 0u);
  EXPECT_GT(grid.value()->stats().xy_evaluations, 0u);
}

TEST(MakeMeasureProviderTest, FactoryKinds) {
  MatchingRelation m = TinyMatching();
  ResolvedRule rule = XyRule();
  EXPECT_TRUE(MakeMeasureProvider(m, rule, "scan").ok());
  EXPECT_TRUE(MakeMeasureProvider(m, rule, "scan_subset").ok());
  EXPECT_TRUE(MakeMeasureProvider(m, rule, "grid").ok());
  EXPECT_TRUE(MakeMeasureProvider(m, rule, "auto").ok());
  EXPECT_FALSE(MakeMeasureProvider(m, rule, "bogus").ok());
}

TEST(AutoProviderTest, PicksGridUpToTwoToTheTwentyCells) {
  // Small M: the bound is 2^20 cells. 32^4 = 2^20 fits; 33^4 does not.
  const ResolvedRule rule{{0, 1}, {2, 3}};
  const MatchingRelation fits = RandomMatching(4, 31, 50, 41);
  EXPECT_EQ(ResolveProviderKind(fits, rule, "auto"), "grid");
  const MatchingRelation too_big = RandomMatching(4, 32, 50, 41);
  EXPECT_EQ(ResolveProviderKind(too_big, rule, "auto"), "scan");
  // Explicit kinds pass through untouched.
  EXPECT_EQ(ResolveProviderKind(too_big, rule, "grid"), "grid");
  EXPECT_EQ(ResolveProviderKind(fits, rule, "scan_subset"), "scan_subset");
}

TEST(AutoProviderTest, PicksGridUpToOneCellPerMatchingTuple) {
  // Past 2^20 the bound is |M|: 33^4 = 1185921 cells needs as many
  // matching tuples.
  const ResolvedRule rule{{0, 1}, {2, 3}};
  MatchingRelation m = RandomMatching(4, 32, 1185920, 43);
  EXPECT_EQ(ResolveProviderKind(m, rule, "auto"), "scan");
  m.AddTuple(0, 1, {0, 0, 0, 0});
  EXPECT_EQ(ResolveProviderKind(m, rule, "auto"), "grid");
}

TEST(AutoProviderTest, HugeGridFallsBackToScan) {
  // dmax 255 over four attributes is a 2^32-cell grid: "grid" fails,
  // "auto" quietly scans.
  const MatchingRelation m = RandomMatching(4, 255, 100, 47);
  const ResolvedRule rule{{0, 1}, {2, 3}};
  EXPECT_FALSE(MakeMeasureProvider(m, rule, "grid").ok());
  EXPECT_EQ(ResolveProviderKind(m, rule, "auto"), "scan");
  auto provider = MakeMeasureProvider(m, rule, "auto");
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  EXPECT_NE(dynamic_cast<ScanMeasureProvider*>(provider->get()), nullptr);
}

std::string PublishedProvider() {
  for (const auto& info : obs::MetricsRegistry::Global().Snapshot().infos) {
    if (info.name == "determine.provider") return info.label + "=" + info.value;
  }
  return "";
}

TEST(AutoProviderTest, ReportsTheResolvedKind) {
  const MatchingRelation m = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  auto automatic = DetermineThresholds(m, rule, DetermineOptions{});
  ASSERT_TRUE(automatic.ok());
  EXPECT_EQ(automatic->provider, "grid");
  EXPECT_EQ(PublishedProvider(), "kind=grid");
  const std::string json = DetermineResultToJson(*automatic, rule);
  EXPECT_NE(json.find("\"provider\":\"grid\""), std::string::npos);

  SpecialCaseOptions special;
  special.provider = "scan_subset";
  auto mfd = DetermineMfdThresholds(m, rule, special);
  ASSERT_TRUE(mfd.ok());
  EXPECT_EQ(mfd->provider, "scan_subset");
  EXPECT_EQ(PublishedProvider(), "kind=scan_subset");
  auto md = DetermineMdThresholds(m, rule, SpecialCaseOptions{});
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->provider, "grid");
}

// Everything a determination returns except the provider's own name
// and work counters, with doubles in exact hex form.
std::string SerializeResult(const DetermineResult& result) {
  std::string out = StrFormat("prior %a lhs %zu/%zu rhs %zu/%zu/%zu\n",
                              result.prior_mean_cq, result.stats.lhs_evaluated,
                              result.stats.lhs_total,
                              result.stats.rhs.lattice_size,
                              result.stats.rhs.evaluated,
                              result.stats.rhs.pruned);
  for (const DeterminedPattern& p : result.patterns) {
    out += PatternToString(p.pattern);
    out += StrFormat(" %a %a %a %a %a %llu %llu\n", p.measures.d,
                     p.measures.confidence, p.measures.support,
                     p.measures.quality, p.utility,
                     static_cast<unsigned long long>(p.measures.lhs_count),
                     static_cast<unsigned long long>(p.measures.xy_count));
  }
  return out;
}

TEST(AutoProviderTest, ResultsByteEqualScan) {
  CoraOptions cora_options;
  cora_options.num_entities = 40;
  const GeneratedData cora = GenerateCora(cora_options);
  MatchingOptions matching_options;
  matching_options.dmax = 10;
  matching_options.max_pairs = 4000;
  auto cora_matching = BuildMatchingRelation(
      cora.relation, {"author", "title", "venue", "year"}, matching_options);
  ASSERT_TRUE(cora_matching.ok());
  const MatchingRelation hotel_matching = testutil::HotelMatching();
  struct Case {
    const char* name;
    const MatchingRelation* matching;
    RuleSpec rule;
  };
  const Case cases[] = {
      {"cora", &*cora_matching, {{"author", "title"}, {"venue", "year"}}},
      {"hotel", &hotel_matching, {{"Address"}, {"Region"}}},
  };
  for (const Case& c : cases) {
    for (LhsAlgorithm lhs : {LhsAlgorithm::kDa, LhsAlgorithm::kDap}) {
      for (RhsAlgorithm rhs : {RhsAlgorithm::kPa, RhsAlgorithm::kPap}) {
        for (std::size_t top_l : {1, 5}) {
          for (std::size_t threads : {1, 2, 7}) {
            DetermineOptions options;
            options.lhs_algorithm = lhs;
            options.rhs_algorithm = rhs;
            options.top_l = top_l;
            options.threads = threads;
            const std::string where = StrFormat(
                "%s %s+%s top_l=%zu threads=%zu", c.name,
                LhsAlgorithmName(lhs), RhsAlgorithmName(rhs), top_l, threads);
            auto automatic = DetermineThresholds(*c.matching, c.rule, options);
            options.provider = "scan";
            auto scan = DetermineThresholds(*c.matching, c.rule, options);
            ASSERT_TRUE(automatic.ok()) << where;
            ASSERT_TRUE(scan.ok()) << where;
            EXPECT_EQ(automatic->provider, "grid") << where;
            EXPECT_EQ(scan->provider, "scan") << where;
            EXPECT_FALSE(automatic->patterns.empty()) << where;
            EXPECT_EQ(SerializeResult(*automatic), SerializeResult(*scan))
                << where;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// CountGrid oracle: every way of filling a grid (matching columns, level
// rows, merged chunks, signed Apply batches) against a brute-force count
// of the rows whose rule levels are all <= ϕ.

// `rows` random level rows of `width` levels in [0, dmax], row-major.
std::vector<Level> RandomRows(std::size_t rows, std::size_t width, int dmax,
                              Rng* rng) {
  std::vector<Level> levels(rows * width);
  for (Level& level : levels) {
    level = static_cast<Level>(rng->NextBounded(dmax + 1));
  }
  return levels;
}

// A rule over `dims` of the `width` row columns, in shuffled order, with
// a random split into at least one LHS dim and the rest RHS.
ResolvedRule RandomRule(std::size_t dims, std::size_t width, Rng* rng) {
  std::vector<std::size_t> columns(width);
  for (std::size_t c = 0; c < width; ++c) columns[c] = c;
  for (std::size_t c = width; c > 1; --c) {
    std::swap(columns[c - 1], columns[rng->NextBounded(c)]);
  }
  const std::size_t lhs = 1 + rng->NextBounded(dims);
  ResolvedRule rule;
  rule.lhs.assign(columns.begin(), columns.begin() + lhs);
  rule.rhs.assign(columns.begin() + lhs, columns.begin() + dims);
  return rule;
}

MatchingRelation MatchingOfRows(const std::vector<Level>& levels,
                                std::size_t width, int dmax) {
  std::vector<std::vector<Level>> rows;
  for (std::size_t r = 0; r * width < levels.size(); ++r) {
    rows.emplace_back(levels.begin() + r * width,
                      levels.begin() + (r + 1) * width);
  }
  return MakeMatching(std::vector<std::string>(width, "a"), dmax, rows);
}

CountGrid GridOfRows(const std::vector<Level>& levels, std::size_t width,
                     int dmax, const ResolvedRule& rule) {
  auto grid = CountGrid::Create(dmax, rule.lhs.size(), rule.rhs.size(),
                                GridMeasureProvider::kMaxCells);
  DD_CHECK(grid.ok());
  grid->AddRows(levels.data(), levels.size() / width, width, rule, +1);
  return std::move(grid).value();
}

std::uint64_t BruteCount(const std::vector<Level>& levels, std::size_t width,
                         const ResolvedRule& rule, const Levels& lhs,
                         const Levels& rhs) {
  std::uint64_t count = 0;
  for (std::size_t r = 0; r * width < levels.size(); ++r) {
    const Level* row = levels.data() + r * width;
    bool match = true;
    for (std::size_t d = 0; d < lhs.size(); ++d) {
      match = match && row[rule.lhs[d]] <= lhs[d];
    }
    for (std::size_t d = 0; d < rhs.size(); ++d) {
      match = match && row[rule.rhs[d]] <= rhs[d];
    }
    count += match ? 1 : 0;
  }
  return count;
}

// Calls fn(lhs, rhs) for every ϕ of the threshold lattice.
template <typename Fn>
void ForEachPattern(std::size_t lhs_dims, std::size_t rhs_dims, int dmax,
                    const Fn& fn) {
  Levels levels(lhs_dims + rhs_dims, 0);
  while (true) {
    fn(Levels(levels.begin(), levels.begin() + lhs_dims),
       Levels(levels.begin() + lhs_dims, levels.end()));
    std::size_t d = 0;
    while (d < levels.size() && levels[d] == dmax) levels[d++] = 0;
    if (d == levels.size()) return;
    ++levels[d];
  }
}

// Every cell of two cumulative grids, and every LHS count, agree.
void ExpectSameCounts(const CountGrid& a, const CountGrid& b) {
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ForEachPattern(a.lhs_dims(), a.rhs_dims(), a.dmax(),
                 [&](const Levels& lhs, const Levels& rhs) {
                   const std::size_t x = a.LhsIndex(lhs);
                   ASSERT_EQ(a.Count(x, rhs), b.Count(x, rhs));
                   ASSERT_EQ(a.LhsCount(x), b.LhsCount(x));
                 });
}

// dmax 1, 10 and 14 store 4-bit PackedColumns; 15 and 20 store bytes.
constexpr int kOracleDmax[] = {1, 10, 14, 15, 20};

TEST(CountGridTest, EveryCellMatchesBruteForce) {
  Rng rng(101);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int dmax : kOracleDmax) {
      SCOPED_TRACE(::testing::Message() << "dims " << dims << " dmax " << dmax);
      const std::size_t width = dims + 1;
      // Odd and > 256 rows: a packed4 tail nibble, vector blocks plus a
      // scalar tail, and more than one AddRows batch.
      const std::vector<Level> levels = RandomRows(301, width, dmax, &rng);
      const ResolvedRule rule = RandomRule(dims, width, &rng);

      CountGrid from_rows = GridOfRows(levels, width, dmax, rule);
      from_rows.PrefixSum();
      ForEachPattern(rule.lhs.size(), rule.rhs.size(), dmax,
                     [&](const Levels& lhs, const Levels& rhs) {
                       const std::size_t x = from_rows.LhsIndex(lhs);
                       ASSERT_EQ(from_rows.Count(x, rhs),
                                 BruteCount(levels, width, rule, lhs, rhs));
                       ASSERT_EQ(from_rows.LhsCount(x),
                                 BruteCount(levels, width, rule, lhs, {}));
                     });
      EXPECT_EQ(from_rows.Total(), 301u);

      const MatchingRelation matching = MatchingOfRows(levels, width, dmax);
      ASSERT_EQ(matching.column(0).packed4(), dmax <= 14);
      auto from_columns = CountGrid::Create(dmax, rule.lhs.size(),
                                            rule.rhs.size(),
                                            GridMeasureProvider::kMaxCells);
      ASSERT_TRUE(from_columns.ok());
      from_columns->AddColumns(matching, rule);
      from_columns->PrefixSum();
      ExpectSameCounts(*from_columns, from_rows);
    }
  }
}

TEST(CountGridTest, AddColumnsEqualsAddRowsAcrossBlocks) {
  // More rows than one 4096-row AddColumns block.
  Rng rng(103);
  for (int dmax : kOracleDmax) {
    SCOPED_TRACE(::testing::Message() << "dmax " << dmax);
    const std::vector<Level> levels = RandomRows(9001, 3, dmax, &rng);
    const ResolvedRule rule{{2}, {0, 1}};
    CountGrid from_rows = GridOfRows(levels, 3, dmax, rule);
    from_rows.PrefixSum();
    auto from_columns =
        CountGrid::Create(dmax, 1, 2, GridMeasureProvider::kMaxCells);
    ASSERT_TRUE(from_columns.ok());
    from_columns->AddColumns(MatchingOfRows(levels, 3, dmax), rule);
    from_columns->PrefixSum();
    ExpectSameCounts(*from_columns, from_rows);
  }
}

TEST(CountGridTest, MergedChunksEqualOneGrid) {
  Rng rng(107);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int dmax : kOracleDmax) {
      SCOPED_TRACE(::testing::Message() << "dims " << dims << " dmax " << dmax);
      const std::vector<Level> levels = RandomRows(500, dims, dmax, &rng);
      const ResolvedRule rule = RandomRule(dims, dims, &rng);
      CountGrid whole = GridOfRows(levels, dims, dmax, rule);
      whole.PrefixSum();

      // Uneven chunks, one of them empty.
      const std::size_t cuts[] = {0, 0, 7, 260, 500};
      auto merged = CountGrid::Create(dmax, rule.lhs.size(), rule.rhs.size(),
                                      GridMeasureProvider::kMaxCells);
      ASSERT_TRUE(merged.ok());
      for (std::size_t k = 0; k + 1 < std::size(cuts); ++k) {
        const std::vector<Level> chunk(levels.begin() + cuts[k] * dims,
                                       levels.begin() + cuts[k + 1] * dims);
        merged->Merge(GridOfRows(chunk, dims, dmax, rule));
      }
      merged->PrefixSum();
      ExpectSameCounts(*merged, whole);
    }
  }
}

TEST(CountGridTest, ApplySequenceEqualsFreshBuild) {
  Rng rng(109);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int dmax : kOracleDmax) {
      SCOPED_TRACE(::testing::Message() << "dims " << dims << " dmax " << dmax);
      const std::size_t width = dims + 1;
      const ResolvedRule rule = RandomRule(dims, width, &rng);
      std::vector<Level> live = RandomRows(40, width, dmax, &rng);
      GridMeasureProvider provider(GridOfRows(live, width, dmax, rule), rule);
      for (int step = 0; step < 6; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const std::vector<Level> added =
            RandomRows(rng.NextBounded(300), width, dmax, &rng);
        // Remove a random subset of the live rows.
        std::vector<Level> removed;
        std::vector<Level> kept;
        for (std::size_t r = 0; r * width < live.size(); ++r) {
          std::vector<Level>& to = rng.NextBounded(3) == 0 ? removed : kept;
          to.insert(to.end(), live.begin() + r * width,
                    live.begin() + (r + 1) * width);
        }
        provider.Apply(added, removed, width);
        live = kept;
        live.insert(live.end(), added.begin(), added.end());

        CountGrid fresh = GridOfRows(live, width, dmax, rule);
        fresh.PrefixSum();
        ASSERT_EQ(provider.total(), live.size() / width);
        ASSERT_EQ(fresh.Total(), provider.total());
        const Levels all_lhs(rule.lhs.size(), dmax);
        const Levels all_rhs(rule.rhs.size(), dmax);
        provider.SetLhs(all_lhs);
        EXPECT_EQ(provider.CountXY(all_rhs), provider.total());
        ForEachPattern(rule.lhs.size(), rule.rhs.size(), dmax,
                       [&](const Levels& lhs, const Levels& rhs) {
                         if (lhs != provider.current_lhs()) {
                           provider.SetLhs(lhs);
                         }
                         const std::size_t x = fresh.LhsIndex(lhs);
                         ASSERT_EQ(provider.lhs_count(), fresh.LhsCount(x));
                         ASSERT_EQ(provider.CountXY(rhs), fresh.Count(x, rhs));
                       });
      }
    }
  }
}

TEST(CountGridTest, MaxCellsBoundIsExact) {
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int dmax : kOracleDmax) {
      std::size_t cells = 1;
      for (std::size_t d = 0; d < dims; ++d) cells *= dmax + 1;
      auto exact = CountGrid::NumCells(dmax, dims, cells);
      ASSERT_TRUE(exact.ok());
      EXPECT_EQ(*exact, cells);
      EXPECT_FALSE(CountGrid::NumCells(dmax, dims, cells - 1).ok());
      EXPECT_TRUE(CountGrid::Create(dmax, 1, dims - 1, cells).ok());
      EXPECT_FALSE(CountGrid::Create(dmax, 1, dims - 1, cells - 1).ok());
    }
  }
  EXPECT_FALSE(CountGrid::NumCells(0, 1, GridMeasureProvider::kMaxCells).ok());
  EXPECT_FALSE(
      CountGrid::NumCells(256, 1, GridMeasureProvider::kMaxCells).ok());
}

TEST(GridProviderTest, CloneKeepsCountsAcrossApply) {
  // Copy-on-write: Apply replaces the live grid, so a clone taken
  // before it keeps reading the old counts while the provider reads the
  // new ones.
  Rng rng(113);
  const int dmax = 6;
  const ResolvedRule rule{{0, 1}, {2}};
  const std::vector<Level> before = RandomRows(200, 3, dmax, &rng);
  const MatchingRelation m = MatchingOfRows(before, 3, dmax);
  auto provider = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(provider.ok());
  std::unique_ptr<MeasureProvider> clone = (*provider)->CloneForThread();
  ASSERT_NE(clone, nullptr);

  const std::vector<Level> added = RandomRows(50, 3, dmax, &rng);
  const std::vector<Level> removed(before.begin(), before.begin() + 30 * 3);
  (*provider)->Apply(added, removed, 3);
  (*provider)->Apply(added, {}, 3);

  std::vector<Level> after(before.begin() + 30 * 3, before.end());
  after.insert(after.end(), added.begin(), added.end());
  after.insert(after.end(), added.begin(), added.end());
  EXPECT_EQ(clone->total(), 200u);
  EXPECT_EQ((*provider)->total(), 270u);
  ForEachPattern(2, 1, dmax, [&](const Levels& lhs, const Levels& rhs) {
    clone->SetLhs(lhs);
    (*provider)->SetLhs(lhs);
    ASSERT_EQ(clone->lhs_count(), BruteCount(before, 3, rule, lhs, {}));
    ASSERT_EQ(clone->CountXY(rhs), BruteCount(before, 3, rule, lhs, rhs));
    ASSERT_EQ(clone->CountXYConcurrent(rhs), clone->CountXY(rhs));
    ASSERT_EQ((*provider)->lhs_count(), BruteCount(after, 3, rule, lhs, {}));
    ASSERT_EQ((*provider)->CountXY(rhs),
              BruteCount(after, 3, rule, lhs, rhs));
  });
}

TEST(MeasuresTest, FromCountsComputesAllStatistics) {
  Measures m = MeasuresFromCounts(100, 40, 30, {2, 2}, 10);
  EXPECT_DOUBLE_EQ(m.d, 0.4);
  EXPECT_DOUBLE_EQ(m.confidence, 0.75);
  EXPECT_DOUBLE_EQ(m.support, 0.3);
  EXPECT_DOUBLE_EQ(m.quality, 0.8);
  // S = C * D must hold (paper: S(ϕ) = C(ϕ)D(ϕ)).
  EXPECT_NEAR(m.support, m.confidence * m.d, 1e-12);
}

TEST(MeasuresTest, EmptyDenominators) {
  Measures m = MeasuresFromCounts(0, 0, 0, {1}, 10);
  EXPECT_DOUBLE_EQ(m.d, 0.0);
  EXPECT_DOUBLE_EQ(m.confidence, 0.0);
  EXPECT_DOUBLE_EQ(m.support, 0.0);
}

TEST(MeasuresTest, PaperDd1Example) {
  // D(dd1) = 6/15, C(dd1) = 4/6, S(dd1) = 4/15 on the Hotel instance.
  // Region threshold 4 is the plain-Levenshtein equivalent of the
  // paper's q-gram-based threshold 3 (see matching_test.cc).
  MatchingRelation m = testutil::HotelMatching(/*dmax=*/30);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  Measures measures =
      ComputeMeasures(&provider, Pattern{{8}, {4}}, /*dmax=*/30);
  EXPECT_NEAR(measures.d, 6.0 / 15.0, 1e-12);
  EXPECT_NEAR(measures.confidence, 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(measures.support, 4.0 / 15.0, 1e-12);
}

}  // namespace
}  // namespace dd
