#include "matching/builder.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "matching/serialization.h"
#include "matching/value_cache.h"
#include "metric/metric.h"
#include "tests/test_util.h"

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

// PairLevelSource::Row against per-pair ResolvedMetrics::ComputeLevel
// for every built-in metric, with the value cache off, on, and on with
// tables forced off (every attribute on its one-to-many rows). Rows are
// sorted random id lists with repeats, the row itself, ids below it and
// runs past kMaxRun; values include empty strings, duplicates and
// strings over 64 bytes. Scales give fractional and huge raw caps.
TEST(MatchingRowEntryTest, RowMatchesComputeLevel) {
  Rng rng(91);
  const std::string base =
      "Proceedings of the International Conference on Data Engineering, "
      "Washington DC, USA";  // 83 bytes
  const std::vector<std::string> pool = {
      "", "a", "12", "12.5", "-3", "abc def", "def abc abc", base,
      base + "!", base.substr(0, 64), base.substr(0, 65), base.substr(3),
      "West Wood Hotel", "west wood hotel", "Chicago, IL", "chicago"};
  Relation relation(Schema({Attribute{"s", AttributeType::kString},
                            Attribute{"t", AttributeType::kString}}));
  for (int r = 0; r < 120; ++r) {
    std::string s = pool[rng.NextBounded(pool.size())];
    if (!s.empty() && rng.NextBool(0.4)) {
      s[rng.NextBounded(s.size())] = static_cast<char>('a' + rng.NextBounded(26));
    }
    ASSERT_TRUE(
        relation.AddRow({s, pool[rng.NextBounded(pool.size())]}).ok());
  }
  const std::uint32_t n = static_cast<std::uint32_t>(relation.num_rows());
  for (const char* metric : {"levenshtein", "qgram2", "qgram3", "jaccard",
                             "cosine", "numeric_abs"}) {
    for (const double scale : {0.0, 0.37, 1e-300}) {  // 0: the default
      for (int mode = 0; mode < 3; ++mode) {
        MatchingOptions options;
        options.dmax = 9;
        options.metric_overrides = {{"s", metric}, {"t", metric}};
        if (scale > 0.0) options.scale_overrides = {{"s", scale}};
        options.value_cache = mode != 0;
        if (mode == 2) options.value_cache_max_cells = 0;
        auto resolved =
            ResolveMatchingMetrics(relation.schema(), {"s", "t"}, options);
        ASSERT_TRUE(resolved.ok());
        const PairLevelSource source(relation, *resolved, options,
                                     /*pairs_to_compute=*/1u << 20,
                                     /*threads=*/2);
        EXPECT_EQ(source.tables_built(), mode == 1 ? 2u : 0u);
        for (int trial = 0; trial < 6; ++trial) {
          const auto i = static_cast<std::uint32_t>(rng.NextBounded(n));
          std::vector<std::uint32_t> js = {i, i};
          const std::size_t count = trial == 0
                                        ? PairLevelSource::kMaxRun + 300
                                        : rng.NextBounded(3 * n);
          for (std::size_t k = 0; k < count; ++k) {
            js.push_back(static_cast<std::uint32_t>(rng.NextBounded(n)));
          }
          std::sort(js.begin(), js.end());
          std::vector<Level> levels(js.size() * 2, 255);
          std::uint64_t calls = 0;
          source.Row(i, js.data(), js.size(), levels.data(), &calls);
          std::uint64_t distinct_pairs = 0;
          for (std::size_t k = 0; k < js.size(); ++k) {
            for (std::size_t a = 0; a < 2; ++a) {
              const std::size_t col = resolved->attr_idx[a];
              distinct_pairs += relation.at(i, col) != relation.at(js[k], col);
              ASSERT_EQ(levels[k * 2 + a],
                        resolved->ComputeLevel(relation, i, js[k], a))
                  << metric << " scale=" << scale << " mode=" << mode
                  << " pair (" << i << "," << js[k] << ") attr " << a;
            }
          }
          // Tables answer without the metric; the rows skip equal values.
          const std::uint64_t want_calls =
              mode == 0 ? js.size() * 2 : mode == 1 ? 0 : distinct_pairs;
          EXPECT_EQ(calls, want_calls) << metric << " mode=" << mode;
        }
      }
    }
  }
}

// Over a subset of rows, Row() takes positions in the subset.
TEST(MatchingRowEntryTest, RowOverRowSubsetTakesPositions) {
  RestaurantOptions restaurant;
  restaurant.num_entities = 30;
  GeneratedData data = GenerateRestaurant(restaurant);
  const Relation& relation = data.relation;
  std::vector<std::uint32_t> rows;
  for (std::uint32_t r = 1; r < relation.num_rows(); r += 3) rows.push_back(r);
  const std::vector<std::string> attrs = {"name", "address", "city", "type"};
  for (int mode = 0; mode < 3; ++mode) {
    MatchingOptions options;
    options.value_cache = mode != 0;
    if (mode == 2) options.value_cache_max_cells = 0;
    auto resolved = ResolveMatchingMetrics(relation.schema(), attrs, options);
    ASSERT_TRUE(resolved.ok());
    const PairLevelSource source(relation, *resolved, options,
                                 /*pairs_to_compute=*/1u << 20,
                                 /*threads=*/2, &rows);
    std::vector<std::uint32_t> js(rows.size());
    for (std::uint32_t q = 0; q < js.size(); ++q) js[q] = q;
    std::vector<Level> levels(js.size() * attrs.size());
    for (std::uint32_t p = 0; p < rows.size(); p += 5) {
      std::uint64_t calls = 0;
      source.Row(p, js.data(), js.size(), levels.data(), &calls);
      for (std::size_t q = 0; q < js.size(); ++q) {
        std::vector<Level> want(attrs.size());
        resolved->ComputeLevels(relation, rows[p], rows[q], want.data());
        ASSERT_EQ(std::vector<Level>(levels.begin() + q * attrs.size(),
                                     levels.begin() + (q + 1) * attrs.size()),
                  want)
            << "mode " << mode << " positions " << p << "," << q;
      }
    }
  }
}

// mem.value_cache_bytes covers the interned row ids and value pointers
// and the one-to-many rows' per-value data, not only the level tables.
TEST(MatchingRowEntryTest, CacheBytesCountInternedValuesAndRowData) {
  Relation relation(Schema({Attribute{"s", AttributeType::kString}}));
  for (int r = 0; r < 200; ++r) {
    ASSERT_TRUE(relation.AddRow({"value " + std::to_string(r % 50)}).ok());
  }
  MatchingOptions options;
  auto resolved = ResolveMatchingMetrics(relation.schema(), {"s"}, options);
  ASSERT_TRUE(resolved.ok());
  const std::size_t interned =
      200 * sizeof(std::uint32_t) + 50 * sizeof(const std::string*);
  const std::size_t table = 50 * 49 / 2;
  const PairLevelSource with_table(relation, *resolved, options, 1u << 20, 1);
  ASSERT_EQ(with_table.tables_built(), 1u);
  EXPECT_GE(with_table.cache_bytes(), interned + table);
  // Tables forced off: the Levenshtein rows keep one 64-byte character
  // histogram per distinct value.
  options.value_cache_max_cells = 0;
  const PairLevelSource rows_only(relation, *resolved, options, 1u << 20, 1);
  ASSERT_EQ(rows_only.tables_built(), 0u);
  EXPECT_GE(rows_only.cache_bytes(), interned + 50 * 64);
  options.value_cache = false;
  const PairLevelSource uncached(relation, *resolved, options, 1u << 20, 1);
  EXPECT_EQ(uncached.cache_bytes(), 0u);
}

// The survivors of `full` after dropping `rows`, appended one by one.
MatchingRelation NaiveRemove(const MatchingRelation& full,
                             const std::vector<std::uint32_t>& rows) {
  MatchingRelation out(full.attribute_names(), full.dmax());
  std::set<std::uint32_t> drop(rows.begin(), rows.end());
  for (std::uint32_t r = 0; r < full.num_tuples(); ++r) {
    if (drop.count(r) == 0) {
      out.AddTuple(full.pair(r).first, full.pair(r).second, full.RowLevels(r));
    }
  }
  return out;
}

// Same pairs and the same packed bytes up to each column's capacity:
// operator== compares the used bytes (padding nibble included), and
// every byte past them must still be zero.
void ExpectSameRelation(const MatchingRelation& got,
                        const MatchingRelation& want) {
  ASSERT_EQ(got.pairs(), want.pairs());
  for (std::size_t a = 0; a < got.num_attributes(); ++a) {
    const PackedColumn& column = got.column(a);
    EXPECT_EQ(column, want.column(a)) << "column " << a;
    for (std::size_t b = column.packed_bytes(); b < column.capacity_bytes();
         ++b) {
      ASSERT_EQ(column.data()[b], 0) << "column " << a << " byte " << b;
    }
  }
}

TEST(MatchingRelationTest, RemoveRowsMatchesNaiveReference) {
  for (int dmax : {10, 20}) {  // 4-bit and 8-bit columns
    for (std::size_t size : {std::size_t{37}, std::size_t{38}}) {
      const MatchingRelation full =
          testutil::RandomMatching(3, dmax, size, 7 + size);
      ASSERT_EQ(full.column(0).packed4(), dmax <= 14);
      const std::uint32_t last = static_cast<std::uint32_t>(size - 1);
      std::vector<std::vector<std::uint32_t>> sets = {
          {},
          {0},
          {last},
          {5, 6, 7, 8, 9, 10, 11},             // run from an odd row
          {6, 7, 8, 9, 10, 11, 12, 13},        // run from an even row
          {1, 2, 9, 10, 11, 20, last - 1, last},
          {}, {}, {}};
      for (std::uint32_t r = 0; r < size; ++r) {
        (r % 2 == 1 ? sets[6] : sets[7]).push_back(r);  // odd / even rows
        sets[8].push_back(r);                           // every row
      }
      for (const auto& rows : sets) {
        SCOPED_TRACE(::testing::Message() << "dmax " << dmax << ", size "
                                          << size << ", " << rows.size()
                                          << " rows removed");
        MatchingRelation got = full;
        std::vector<Level> removed(rows.size() * 3);
        got.RemoveRows(rows, removed.data());
        MatchingRelation want = NaiveRemove(full, rows);
        ExpectSameRelation(got, want);
        for (std::size_t k = 0; k < rows.size(); ++k) {
          EXPECT_EQ(std::vector<Level>(removed.begin() + 3 * k,
                                       removed.begin() + 3 * (k + 1)),
                    full.RowLevels(rows[k]));
        }
        MatchingRelation plain = full;  // no level capture
        plain.RemoveRows(rows);
        ExpectSameRelation(plain, want);
        // Rows regrown over the vacated bytes must read level 0.
        got.ResizeRows(size);
        want.ResizeRows(size);
        ExpectSameRelation(got, want);
      }
    }
  }
}

TEST(MatchingRelationTest, RemoveDeadPairsCapturesRemovedTuples) {
  for (int dmax : {10, 20}) {
    // Pairs (2t, 2t + 1) over ids 0..79; ids 3, 4 and 41 die.
    const MatchingRelation full = testutil::RandomMatching(2, dmax, 40, 3);
    std::vector<std::uint8_t> live(80, 1);
    live[3] = live[4] = live[41] = 0;
    const std::vector<std::uint32_t> rows = {1, 2, 20};
    MatchingRelation got = full;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> removed_pairs = {
        {9, 9}};  // outputs are appended to
    std::vector<Level> removed_levels = {1, 1};
    got.RemoveDeadPairs(live, &removed_pairs, &removed_levels);
    ExpectSameRelation(got, NaiveRemove(full, rows));
    ASSERT_EQ(removed_pairs.size(), 4u);
    ASSERT_EQ(removed_levels.size(), 8u);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(removed_pairs[k + 1], full.pair(rows[k]));
      EXPECT_EQ(std::vector<Level>(removed_levels.begin() + 2 * (k + 1),
                                   removed_levels.begin() + 2 * (k + 2)),
                full.RowLevels(rows[k]));
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
