#include "matching/builder.h"

#include <set>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "matching/serialization.h"
#include "matching/value_cache.h"
#include "metric/metric.h"

namespace dd {
namespace {

TEST(BucketDistanceTest, CapsAndRounds) {
  EXPECT_EQ(BucketDistance(0.0, 1.0, 10), 0);
  EXPECT_EQ(BucketDistance(3.4, 1.0, 10), 3);
  EXPECT_EQ(BucketDistance(3.6, 1.0, 10), 4);
  EXPECT_EQ(BucketDistance(42.0, 1.0, 10), 10);
  EXPECT_EQ(BucketDistance(10.0, 1.0, 10), 10);
  // Normalized metric spread over the domain.
  EXPECT_EQ(BucketDistance(0.5, 10.0, 10), 5);
  EXPECT_EQ(BucketDistance(1.0, 10.0, 10), 10);
  // Infinity (unparseable numerics) caps at dmax.
  EXPECT_EQ(BucketDistance(std::numeric_limits<double>::infinity(), 1.0, 10),
            10);
}

TEST(MatchingBuilderTest, AllPairsCountAndSymmetry) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 10;
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 15u);  // C(6,2)
  EXPECT_EQ(m->num_attributes(), 2u);
  EXPECT_EQ(m->dmax(), 10);
  // Pairs are distinct, ordered (i < j) and within range.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    EXPECT_LT(i, j);
    EXPECT_LT(j, 6u);
    EXPECT_TRUE(seen.insert({i, j}).second);
  }
}

TEST(MatchingBuilderTest, LevelsMatchDirectMetricComputation) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 10;
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  ASSERT_TRUE(m.ok());
  LevenshteinMetric lev;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    for (std::size_t a = 0; a < 2; ++a) {
      const std::size_t col = a == 0 ? 1 : 2;  // Address, Region
      double raw = lev.Distance(hotel.relation.at(i, col),
                                hotel.relation.at(j, col));
      EXPECT_EQ(m->level(r, a), BucketDistance(raw, 1.0, 10))
          << "pair (" << i << "," << j << ") attr " << a;
    }
  }
}

TEST(MatchingBuilderTest, PaperRunningExampleStatistics) {
  // The paper's dd1 on Table I: 6 of 15 pairs satisfy the Address
  // threshold and 4 of those the Region threshold (D = 0.4, C = 4/6).
  // The paper computed edit distance with q-grams; under plain
  // Levenshtein the equivalent Region threshold is 4 instead of 3
  // ("Chicago" vs "Chicago, IL" is 4 character inserts).
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 30;  // Large enough to not clip any distance of Table I.
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  ASSERT_TRUE(m.ok());
  std::size_t lhs = 0;
  std::size_t both = 0;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    if (m->level(r, 0) <= 8) {
      ++lhs;
      if (m->level(r, 1) <= 4) ++both;
    }
  }
  EXPECT_EQ(lhs, 6u);
  EXPECT_EQ(both, 4u);
}

TEST(MatchingBuilderTest, SamplingBoundsSizeExactly) {
  CoraOptions copts;
  copts.num_entities = 40;
  GeneratedData cora = GenerateCora(copts);
  MatchingOptions opts;
  opts.max_pairs = 500;
  auto m = BuildMatchingRelation(cora.relation, {"author", "title"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 500u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    EXPECT_LT(i, j);
    EXPECT_LT(j, cora.relation.num_rows());
    EXPECT_TRUE(seen.insert({i, j}).second) << "duplicate sampled pair";
  }
}

TEST(MatchingBuilderTest, SamplingIsDeterministic) {
  CoraOptions copts;
  copts.num_entities = 30;
  GeneratedData cora = GenerateCora(copts);
  MatchingOptions opts;
  opts.max_pairs = 200;
  auto a = BuildMatchingRelation(cora.relation, {"author"}, opts);
  auto b = BuildMatchingRelation(cora.relation, {"author"}, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pairs(), b->pairs());
}

TEST(MatchingBuilderTest, MetricOverrides) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 10;
  opts.metric_overrides["Region"] = "jaccard";
  auto m = BuildMatchingRelation(hotel.relation, {"Region"}, opts);
  ASSERT_TRUE(m.ok());
  JaccardMetric jac;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    double raw = jac.Distance(hotel.relation.at(i, 2), hotel.relation.at(j, 2));
    EXPECT_EQ(m->level(r, 0), BucketDistance(raw, 10.0, 10));
  }
}

TEST(MatchingBuilderTest, RejectsBadInputs) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {}, opts).ok());
  EXPECT_FALSE(
      BuildMatchingRelation(hotel.relation, {"NoSuchAttr"}, opts).ok());
  opts.dmax = 0;
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
  opts.dmax = 10;
  opts.metric_overrides["Name"] = "bogus_metric";
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
  opts.metric_overrides.clear();
  opts.scale_overrides["Name"] = -1.0;
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
}

// The value-pair distance cache (matching/value_cache.h): interning is
// first-occurrence-ordered, the precomputed level table agrees with a
// direct metric evaluation for every distinct pair, and builds with the
// cache disabled produce the identical relation.
TEST(ValueCacheTest, InternedTableMatchesDirectComputation) {
  GeneratedData hotel = HotelExample();
  auto region = hotel.relation.schema().IndexOf("Region");
  ASSERT_TRUE(region.ok());
  const AttributeValueIndex index = InternColumn(hotel.relation, *region);
  ASSERT_EQ(index.row_ids.size(), hotel.relation.num_rows());
  // Every row id maps back to its own value.
  for (std::size_t r = 0; r < hotel.relation.num_rows(); ++r) {
    EXPECT_EQ(*index.values[index.row_ids[r]], hotel.relation.at(r, *region));
  }
  LevenshteinMetric lev;
  const int dmax = 10;
  auto table = ValuePairLevelTable::Build(index, lev, /*scale=*/1.0, dmax,
                                          /*pairs_to_compute=*/1u << 20,
                                          /*max_cells=*/1u << 20,
                                          /*threads=*/2);
  ASSERT_NE(table, nullptr);
  for (std::uint32_t a = 0; a < index.values.size(); ++a) {
    for (std::uint32_t b = 0; b < index.values.size(); ++b) {
      const double raw = lev.Distance(*index.values[a], *index.values[b]);
      EXPECT_EQ(table->LevelOf(a, b), BucketDistance(raw, 1.0, dmax))
          << "ids " << a << "," << b;
    }
  }
}

TEST(ValueCacheTest, BuildRespectsCellBudget) {
  GeneratedData hotel = HotelExample();
  auto address = hotel.relation.schema().IndexOf("Address");
  ASSERT_TRUE(address.ok());
  const AttributeValueIndex index = InternColumn(hotel.relation, *address);
  LevenshteinMetric lev;
  // A budget below the table size must decline to build.
  EXPECT_EQ(ValuePairLevelTable::Build(index, lev, 1.0, 10,
                                       /*pairs_to_compute=*/1u << 20,
                                       /*max_cells=*/1, /*threads=*/1),
            nullptr);
  // Fewer pairs to compute than table cells: caching cannot pay off.
  EXPECT_EQ(ValuePairLevelTable::Build(index, lev, 1.0, 10,
                                       /*pairs_to_compute=*/1,
                                       /*max_cells=*/1u << 20, /*threads=*/1),
            nullptr);
}

// A table over empty strings and values longer than one 64-bit word
// (the one-to-many path's per-pair fallback) must agree with the direct
// per-pair ComputeLevel path on every row pair.
TEST(ValueCacheTest, EmptyAndLongValuesMatchDirectPath) {
  Relation relation(Schema({Attribute{"s", AttributeType::kString}}));
  const std::string base =
      "Proceedings of the International Conference on Data Engineering, "
      "Washington DC, USA";  // 83 bytes
  std::vector<std::string> column = {
      "", "", "a", base, base + "!", base.substr(0, 64), base.substr(0, 65),
      base.substr(0, 63), base.substr(2), base + base.substr(0, 47)};
  std::string typo = base;
  typo[10] = 'X';
  typo[50] = 'Y';
  column.push_back(typo);
  column.push_back(base.substr(0, 60) + "ZZZ");
  column.push_back(base.substr(0, 64));  // duplicate value
  for (std::string& value : column) ASSERT_TRUE(relation.AddRow({value}).ok());

  MatchingOptions options;
  options.dmax = 10;
  auto resolved = ResolveMatchingMetrics(relation.schema(), {"s"}, options);
  ASSERT_TRUE(resolved.ok());
  const AttributeValueIndex index = InternColumn(relation, 0);
  for (const std::size_t threads : {1u, 3u}) {
    auto table = ValuePairLevelTable::Build(
        index, *resolved->metrics[0], resolved->scales[0], options.dmax,
        /*pairs_to_compute=*/1u << 20, /*max_cells=*/1u << 20, threads);
    ASSERT_NE(table, nullptr);
    for (std::uint32_t i = 0; i < relation.num_rows(); ++i) {
      for (std::uint32_t j = i + 1; j < relation.num_rows(); ++j) {
        EXPECT_EQ(table->LevelOf(index.row_ids[i], index.row_ids[j]),
                  resolved->ComputeLevel(relation, i, j, 0))
            << "rows " << i << "," << j << " threads=" << threads;
      }
    }
  }
}

// Parallel fills cut chunks at even rows so 4-bit column bytes are
// never shared. With an odd number of pairs the last byte is half used;
// full and sampled builds must still serialize identically at any
// thread count, with and without the value cache.
TEST(MatchingBuilderTest, OddPairCountBitIdenticalAcrossThreads) {
  CoraOptions coptions;
  coptions.num_entities = 20;
  const GeneratedData cora = GenerateCora(coptions);
  auto sliced = cora.relation.Slice(0, 30);  // 435 pairs
  ASSERT_TRUE(sliced.ok());
  const std::vector<std::string> attrs = {"author", "title", "venue"};
  for (const bool value_cache : {true, false}) {
    for (const std::uint64_t max_pairs : {std::uint64_t{0}, std::uint64_t{333}}) {
      std::string reference;
      for (const std::size_t threads : {1u, 2u, 7u}) {
        MatchingOptions options;
        options.dmax = 8;
        options.max_pairs = max_pairs;
        options.threads = threads;
        options.value_cache = value_cache;
        auto m = BuildMatchingRelation(*sliced, attrs, options);
        ASSERT_TRUE(m.ok());
        ASSERT_EQ(m->num_tuples() % 2, 1u);
        const std::string bytes = SerializeMatchingRelation(*m);
        if (threads == 1) {
          reference = bytes;
        } else {
          EXPECT_EQ(bytes, reference)
              << "threads=" << threads << " max_pairs=" << max_pairs
              << " value_cache=" << value_cache;
        }
      }
    }
  }
}

TEST(MatchingRelationTest, IndexOf) {
  MatchingRelation m({"a", "b"}, 5);
  auto idx = m.IndexOf("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_FALSE(m.IndexOf("c").ok());
}

}  // namespace
}  // namespace dd
