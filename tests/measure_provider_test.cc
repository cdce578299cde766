#include "core/measure_provider.h"

#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"
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
