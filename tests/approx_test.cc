// Tests for the src/approx subsystem: Wilson intervals, 64-bit
// triangular pair arithmetic (the PR-7 overflow audit regression test),
// the uniform pair sampler, LSH blocking, the stratified provider's
// fraction-1.0 bit-identity against the exact pipeline, interval
// coverage at real sampling fractions, and thread determinism of the
// sampled mode.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approx_provider.h"
#include "approx/exact_stream.h"
#include "approx/lsh_index.h"
#include "approx/pair_sampler.h"
#include "approx/refine.h"
#include "approx/sampled_builder.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/determiner.h"
#include "core/measure_provider.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "matching/serialization.h"
#include "matching/value_cache.h"
#include "metric/metric.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using approx::ApproxDetermineOptions;
using approx::ApproxDetermineResult;
using approx::ApproxDetermineThresholds;
using approx::ApproxDetermineWithSample;
using approx::ApproxMeasureProvider;
using approx::ApproxOptions;
using approx::BuildStreamingGridProvider;
using approx::CollectNearPairs;
using approx::LshStats;
using approx::PairSampler;
using approx::SampledMatchingBuilder;

// ---------------------------------------------------------------------
// Wilson interval

TEST(WilsonIntervalTest, ZeroTrialsIsVacuous) {
  const Interval iv = WilsonInterval(0, 0);
  EXPECT_EQ(iv.lo, 0.0);
  EXPECT_EQ(iv.hi, 1.0);
}

TEST(WilsonIntervalTest, ContainsPointEstimate) {
  for (std::uint64_t successes : {0ull, 1ull, 25ull, 99ull, 100ull}) {
    const Interval iv = WilsonInterval(successes, 100);
    const double phat = static_cast<double>(successes) / 100.0;
    EXPECT_LE(iv.lo, phat) << successes;
    EXPECT_GE(iv.hi, phat) << successes;
    EXPECT_GE(iv.lo, 0.0);
    EXPECT_LE(iv.hi, 1.0);
  }
}

TEST(WilsonIntervalTest, WidthShrinksWithSampleSize) {
  const Interval small = WilsonInterval(10, 40);
  const Interval big = WilsonInterval(1000, 4000);
  EXPECT_LT(big.width(), small.width());
}

TEST(WilsonIntervalTest, FinitePopulationCorrection) {
  // Same proportion: the FPC interval for a mostly-exhausted population
  // is strictly tighter than the infinite-population one.
  const Interval infinite = WilsonInterval(50, 100);
  const Interval fpc = WilsonInterval(50, 100, 1.959963984540054, 110);
  EXPECT_LT(fpc.width(), infinite.width());
  // Fully exhausted population: the estimate is exact.
  const Interval exact = WilsonInterval(50, 100, 1.959963984540054, 100);
  EXPECT_DOUBLE_EQ(exact.lo, 0.5);
  EXPECT_DOUBLE_EQ(exact.hi, 0.5);
}

// ---------------------------------------------------------------------
// 64-bit triangular pair arithmetic (PR-7 overflow audit). At
// n = 100'000 the pair population is 4'999'950'000 > 2^32, so any
// 32-bit truncation in encode/decode corrupts indices past k ≈ 4.29e9.

TEST(TriangularPairTest, RoundTripAt100kRows) {
  const std::uint64_t n = 100000;
  const std::uint64_t total = n * (n - 1) / 2;
  ASSERT_EQ(total, 4999950000ull);
  ASSERT_GT(total, std::uint64_t{1} << 32);

  // Boundary pairs.
  EXPECT_EQ(DecodeTriangularPair(0, n), (std::pair<std::uint32_t,
                                                   std::uint32_t>{0, 1}));
  EXPECT_EQ(DecodeTriangularPair(total - 1, n),
            (std::pair<std::uint32_t, std::uint32_t>{
                static_cast<std::uint32_t>(n - 2),
                static_cast<std::uint32_t>(n - 1)}));
  EXPECT_EQ(EncodeTriangularPair(0, 1, n), 0ull);
  EXPECT_EQ(EncodeTriangularPair(n - 2, n - 1, n), total - 1);

  // The row-offset region past 2^32, where 32-bit arithmetic breaks.
  Rng rng(20260808);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t k = rng.NextBounded(total);
    const auto [i, j] = DecodeTriangularPair(k, n);
    ASSERT_LT(i, j);
    ASSERT_LT(j, n);
    ASSERT_EQ(EncodeTriangularPair(i, j, n), k) << "k=" << k;
  }
  // And a deterministic sweep across the > 2^32 tail.
  for (std::uint64_t k = total - 1000; k < total; ++k) {
    const auto [i, j] = DecodeTriangularPair(k, n);
    ASSERT_EQ(EncodeTriangularPair(i, j, n), k);
  }
}

// ForEachPairRun steps from row to row instead of decoding every pair;
// its runs must reproduce DecodeTriangularPair position by position.
// Covers contiguous ranges, rows longer than one run, gaps of one row,
// gaps past the stepping limit (the re-decode path), and n = 100k.
TEST(TriangularPairTest, PairRunsMatchDecode) {
  Rng rng(20261017);
  const auto check = [](std::uint64_t n, const std::vector<std::uint64_t>& ks,
                        std::size_t begin, std::size_t end) {
    std::size_t next = begin;
    ForEachPairRun(
        n, begin, end, [&](std::size_t p) { return ks[p]; },
        [&](std::size_t first, std::uint32_t i, const std::uint32_t* js,
            std::size_t count) {
          ASSERT_EQ(first, next);
          ASSERT_GT(count, 0u);
          ASSERT_LE(count, PairLevelSource::kMaxRun);
          for (std::size_t p = 0; p < count; ++p) {
            const auto want = DecodeTriangularPair(ks[first + p], n);
            ASSERT_EQ(i, want.first) << "n=" << n << " k=" << ks[first + p];
            ASSERT_EQ(js[p], want.second) << "n=" << n << " k=" << ks[first + p];
          }
          next = first + count;
        });
    EXPECT_EQ(next, std::max(begin, end));
  };
  for (const std::uint64_t n : {2ull, 3ull, 57ull, 3001ull, 100000ull}) {
    const std::uint64_t total = n * (n - 1) / 2;
    // Every pair (small n), or a window crossing rows and run limits.
    std::vector<std::uint64_t> dense;
    const std::uint64_t from = total > 20000 ? total / 3 : 0;
    for (std::uint64_t k = from; k < std::min(total, from + 20000); ++k) {
      dense.push_back(k);
    }
    check(n, dense, 0, dense.size());
    check(n, dense, dense.size() / 2, dense.size());
    // Sparse sorted draws at several densities, so gaps span from a few
    // indices to many rows.
    for (const std::size_t draws : {1, 5, 200, 5000}) {
      std::set<std::uint64_t> picked;
      while (picked.size() < std::min<std::uint64_t>(draws, total)) {
        picked.insert(rng.NextBounded(total));
      }
      const std::vector<std::uint64_t> ks(picked.begin(), picked.end());
      check(n, ks, 0, ks.size());
      check(n, ks, ks.size() / 3, ks.size());
    }
  }
}

// ---------------------------------------------------------------------
// PairSampler

TEST(PairSamplerTest, DrawsUniqueNonExcludedIndices) {
  const std::vector<std::uint64_t> excluded = {2, 3, 5, 8, 13, 21};
  PairSampler sampler(100, 7, excluded);
  EXPECT_EQ(sampler.population(), 100 - excluded.size());
  const std::vector<std::uint64_t> drawn = sampler.GrowTo(40);
  EXPECT_EQ(drawn.size(), 40u);
  EXPECT_TRUE(std::is_sorted(drawn.begin(), drawn.end()));
  std::set<std::uint64_t> seen;
  for (std::uint64_t k : drawn) {
    EXPECT_LT(k, 100u);
    EXPECT_FALSE(std::binary_search(excluded.begin(), excluded.end(), k));
    EXPECT_TRUE(seen.insert(k).second) << "duplicate " << k;
  }
}

TEST(PairSamplerTest, GrowToExtendsThePrefix) {
  PairSampler grow_twice(10000, 99, {});
  std::vector<std::uint64_t> acc = grow_twice.GrowTo(300);
  const std::vector<std::uint64_t> second = grow_twice.GrowTo(900);
  acc.insert(acc.end(), second.begin(), second.end());
  std::sort(acc.begin(), acc.end());

  PairSampler grow_once(10000, 99, {});
  std::vector<std::uint64_t> all = grow_once.GrowTo(900);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(acc, all);
  EXPECT_EQ(grow_twice.sampled(), 900u);
}

TEST(PairSamplerTest, ExhaustiveTargetCoversThePopulation) {
  const std::vector<std::uint64_t> excluded = {0, 17, 42};
  PairSampler sampler(64, 5, excluded);
  std::vector<std::uint64_t> first = sampler.GrowTo(20);
  const std::vector<std::uint64_t> rest = sampler.GrowTo(sampler.population());
  EXPECT_TRUE(sampler.exhausted());
  first.insert(first.end(), rest.begin(), rest.end());
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first.size(), 61u);
  for (std::uint64_t k = 0, at = 0; k < 64; ++k) {
    if (std::binary_search(excluded.begin(), excluded.end(), k)) continue;
    ASSERT_EQ(first[at++], k);
  }
}

TEST(PairSamplerTest, SameSeedSameSample) {
  PairSampler a(5000, 1234, {});
  PairSampler b(5000, 1234, {});
  EXPECT_EQ(a.GrowTo(500), b.GrowTo(500));
  PairSampler c(5000, 1235, {});
  EXPECT_NE(a.GrowTo(1000), c.GrowTo(1000));
}

// The drawn-index set's bucket array is part of the sampler's memory:
// reserving for the target allocates it before any draw lands.
TEST(PairSamplerTest, MemoryCountsHashBuckets) {
  const std::vector<std::uint64_t> excluded = {1, 2, 3};
  PairSampler sampler(1000000, 11, excluded);
  EXPECT_EQ(sampler.GrowTo(1000).size(), 1000u);
  std::unordered_set<std::uint64_t> same_reserve;
  same_reserve.reserve(1000);
  EXPECT_GE(sampler.MemoryUsageBytes(),
            excluded.size() * sizeof(std::uint64_t) +
                1000 * (sizeof(std::uint64_t) + 2 * sizeof(void*)) +
                same_reserve.bucket_count() * sizeof(void*));
}

// ---------------------------------------------------------------------
// LSH blocking

TEST(LshIndexTest, FindsDuplicateHeavyPairsDeterministically) {
  CoraOptions options;
  options.num_entities = 40;
  const GeneratedData cora = GenerateCora(options);
  MatchingOptions matching;
  matching.dmax = 8;
  auto resolved = ResolveMatchingMetrics(
      cora.relation.schema(), {"author", "title", "venue"}, matching);
  ASSERT_TRUE(resolved.ok());

  approx::LshOptions lsh;
  LshStats stats;
  const std::vector<std::uint64_t> pairs =
      CollectNearPairs(cora.relation, *resolved, lsh, &stats);
  EXPECT_FALSE(pairs.empty());
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
  const std::uint64_t n = cora.relation.num_rows();
  for (std::uint64_t k : pairs) ASSERT_LT(k, n * (n - 1) / 2);
  EXPECT_EQ(stats.candidate_pairs, pairs.size());

  // Same inputs, same index — bit-for-bit.
  LshStats stats2;
  EXPECT_EQ(CollectNearPairs(cora.relation, *resolved, lsh, &stats2), pairs);
}

// Reference collector, the test oracle for CollectNearPairs: the
// straightforward formulation that sorts and dedups all value pairs of
// an attribute, then all row pairs, with the metric's numeric parse.
// Output and stats must match it exactly. `cuts_in_pair` /
// `cuts_in_self` count value pairs that the expansion budget cuts part
// way through.
namespace reference {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t HashBytes(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Mix(h ^ seed);
}

void TokenFeatures(const std::string& value, std::uint64_t seed,
                   std::vector<std::uint64_t>* out) {
  std::size_t i = 0;
  const std::size_t n = value.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(value[i]))) ++i;
    std::size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(value[i]))) ++i;
    if (i > start) {
      out->push_back(
          HashBytes(std::string_view(value).substr(start, i - start), seed));
    }
  }
}

void QGramFeatures(const std::string& value, std::size_t q, std::uint64_t seed,
                   std::vector<std::uint64_t>* out) {
  if (value.size() < q) {
    out->push_back(HashBytes(value, seed));
    return;
  }
  for (std::size_t i = 0; i + q <= value.size(); ++i) {
    out->push_back(HashBytes(std::string_view(value).substr(i, q), seed));
  }
}

void MinhashSignature(const std::vector<std::uint64_t>& features,
                      std::size_t num_hashes, std::uint64_t seed,
                      std::vector<std::uint64_t>* sig) {
  sig->assign(num_hashes, std::numeric_limits<std::uint64_t>::max());
  for (std::uint64_t f : features) {
    for (std::size_t h = 0; h < num_hashes; ++h) {
      const std::uint64_t v = Mix(f ^ Mix(seed + h));
      if (v < (*sig)[h]) (*sig)[h] = v;
    }
  }
}

std::uint64_t EncodeVidPair(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::vector<std::uint64_t> CollectNearPairs(const Relation& relation,
                                            const ResolvedMetrics& resolved,
                                            const approx::LshOptions& options,
                                            LshStats* stats,
                                            int* cuts_in_pair,
                                            int* cuts_in_self) {
  std::vector<std::uint64_t> out;
  LshStats local;
  const std::uint64_t n = relation.num_rows();
  if (!options.enabled || n < 2) {
    *stats = local;
    return out;
  }
  const std::uint64_t expansion_budget = options.max_candidates * 2;

  for (std::size_t a = 0; a < resolved.num_attributes(); ++a) {
    const BlockingFamily family = resolved.metrics[a]->blocking_family();
    if (family == BlockingFamily::kNone) continue;
    const AttributeValueIndex index =
        InternColumn(relation, resolved.attr_idx[a]);
    const std::size_t distinct = index.distinct();
    std::vector<std::uint64_t> vid_pairs;

    if (family == BlockingFamily::kNumeric) {
      std::vector<std::pair<double, std::uint32_t>> parsed;
      for (std::size_t v = 0; v < distinct; ++v) {
        double d = 0.0;
        if (!ParseDouble(*index.values[v], &d) || !std::isfinite(d)) continue;
        parsed.emplace_back(d, static_cast<std::uint32_t>(v));
      }
      std::sort(parsed.begin(), parsed.end());
      for (std::size_t i = 0; i < parsed.size(); ++i) {
        const std::size_t hi =
            std::min(parsed.size(), i + 1 + options.numeric_window);
        for (std::size_t w = i + 1; w < hi; ++w) {
          vid_pairs.push_back(
              EncodeVidPair(parsed[i].second, parsed[w].second));
        }
      }
    } else {
      const std::size_t num_hashes = options.bands * options.band_rows;
      const std::uint64_t attr_seed =
          Mix(options.hash_seed ^ (0xa11ce5ull + a));
      std::size_t length_bucket_width = 1;
      if (family == BlockingFamily::kEdit) {
        const double cap =
            static_cast<double>(resolved.dmax) / resolved.scales[a];
        length_bucket_width =
            std::max<std::size_t>(1, static_cast<std::size_t>(cap) + 1);
      }
      std::size_t q = 2;
      if (family == BlockingFamily::kQGram) {
        if (const auto* qg =
                dynamic_cast<const QGramMetric*>(resolved.metrics[a].get())) {
          q = qg->q();
        }
      }
      std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
      std::vector<std::uint64_t> features;
      std::vector<std::uint64_t> sig;
      for (std::size_t v = 0; v < distinct; ++v) {
        features.clear();
        if (family == BlockingFamily::kTokenSet) {
          TokenFeatures(*index.values[v], attr_seed, &features);
        } else {
          QGramFeatures(*index.values[v], q, attr_seed, &features);
        }
        MinhashSignature(features, num_hashes, attr_seed, &sig);
        for (std::size_t band = 0; band < options.bands; ++band) {
          std::uint64_t key = Mix(attr_seed ^ (band + 1));
          for (std::size_t r = 0; r < options.band_rows; ++r) {
            key = Mix(key ^ sig[band * options.band_rows + r]);
          }
          if (family == BlockingFamily::kEdit) {
            const std::uint64_t lb =
                index.values[v]->size() / length_bucket_width;
            buckets[Mix(key ^ (lb * 2 + 2))].push_back(
                static_cast<std::uint32_t>(v));
            buckets[Mix(key ^ ((lb + 1) * 2 + 3))].push_back(
                static_cast<std::uint32_t>(v));
          } else {
            buckets[key].push_back(static_cast<std::uint32_t>(v));
          }
        }
      }
      for (const auto& [key, vids] : buckets) {
        (void)key;
        if (vids.size() < 2) continue;
        if (vids.size() > options.max_bucket) {
          ++local.skipped_buckets;
          continue;
        }
        for (std::size_t i = 0; i < vids.size(); ++i) {
          for (std::size_t j = i + 1; j < vids.size(); ++j) {
            vid_pairs.push_back(EncodeVidPair(vids[i], vids[j]));
          }
        }
      }
    }

    std::vector<std::vector<std::uint32_t>> rows_by_vid(distinct);
    for (std::uint32_t row = 0; row < n; ++row) {
      rows_by_vid[index.row_ids[row]].push_back(row);
    }
    for (std::uint32_t v = 0; v < distinct; ++v) {
      if (rows_by_vid[v].size() >= 2) vid_pairs.push_back(EncodeVidPair(v, v));
    }
    std::sort(vid_pairs.begin(), vid_pairs.end());
    vid_pairs.erase(std::unique(vid_pairs.begin(), vid_pairs.end()),
                    vid_pairs.end());

    for (std::uint64_t enc : vid_pairs) {
      const std::uint32_t va = static_cast<std::uint32_t>(enc >> 32);
      const std::uint32_t vb = static_cast<std::uint32_t>(enc);
      const std::vector<std::uint32_t>& ra = rows_by_vid[va];
      const std::vector<std::uint32_t>& rb = rows_by_vid[vb];
      bool kept = false;
      bool cut = false;
      if (va == vb) {
        for (std::size_t x = 0; x < ra.size(); ++x) {
          for (std::size_t y = x + 1; y < ra.size(); ++y) {
            if (out.size() < expansion_budget) {
              out.push_back(EncodeTriangularPair(ra[x], ra[y], n));
              kept = true;
            } else {
              ++local.dropped;
              cut = true;
            }
          }
        }
      } else {
        for (std::uint32_t ia : ra) {
          for (std::uint32_t ib : rb) {
            if (out.size() < expansion_budget) {
              const auto [lo, hi] = std::minmax(ia, ib);
              out.push_back(EncodeTriangularPair(lo, hi, n));
              kept = true;
            } else {
              ++local.dropped;
              cut = true;
            }
          }
        }
      }
      if (kept && cut) ++*(va == vb ? cuts_in_self : cuts_in_pair);
    }
  }

  local.raw_pairs = out.size();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  local.candidate_pairs = out.size();
  if (out.size() > options.max_candidates) {
    local.dropped += out.size() - options.max_candidates;
    out.resize(options.max_candidates);
  }
  *stats = local;
  return out;
}

}  // namespace reference

void ExpectSameStats(const LshStats& got, const LshStats& want,
                     const std::string& label) {
  EXPECT_EQ(got.raw_pairs, want.raw_pairs) << label;
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs) << label;
  EXPECT_EQ(got.dropped, want.dropped) << label;
  EXPECT_EQ(got.skipped_buckets, want.skipped_buckets) << label;
}

// A relation with one column per blocking family (edit, token set,
// q-gram, numeric) whose values come from small pools, so values repeat
// and buckets fill; the pools include empty and space-only strings and
// numbers with surrounding spaces.
Relation RandomBlockingRelation(std::size_t rows, Rng* rng) {
  static const char* const kWords[] = {"", " ", "  ", "ab", "abc", "abd",
                                       "a b", "b a", "xyz", "xy z",
                                       "abcdef", "abcdeg", "the cat"};
  static const char* const kNumbers[] = {"", " ", "1", "2", "2 ", " 3",
                                         "10", "11.5", "-4", "nan", "inf",
                                         "x7", "1e3"};
  Relation relation(Schema({Attribute{"edit", AttributeType::kString},
                            Attribute{"tok", AttributeType::kString},
                            Attribute{"qg", AttributeType::kString},
                            Attribute{"num", AttributeType::kString}}));
  const std::size_t pool = 1 + rng->NextBounded(std::size(kWords));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < 3; ++c) row.push_back(kWords[rng->NextBounded(pool)]);
    row.push_back(kNumbers[rng->NextBounded(std::size(kNumbers))]);
    EXPECT_TRUE(relation.AddRow(std::move(row)).ok());
  }
  return relation;
}

TEST(LshIndexTest, MatchesReferenceCollector) {
  MatchingOptions matching;
  matching.dmax = 4;
  matching.metric_overrides = {
      {"tok", "jaccard"}, {"qg", "qgram3"}, {"num", "numeric_abs"}};
  const std::vector<std::string> attributes = {"edit", "tok", "qg", "num"};
  int cuts_in_pair = 0;
  int cuts_in_self = 0;
  int runs = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const std::size_t rows = rng.NextBounded(50);
    const Relation relation = RandomBlockingRelation(rows, &rng);
    // A random non-empty subset of the attributes, in schema order.
    std::vector<std::string> subset;
    while (subset.empty()) {
      for (const std::string& name : attributes) {
        if (rng.NextBool(0.6)) subset.push_back(name);
      }
    }
    auto resolved = ResolveMatchingMetrics(relation.schema(), subset, matching);
    ASSERT_TRUE(resolved.ok());
    for (std::size_t max_bucket :
         {std::size_t{0}, std::size_t{2}, std::size_t{64}}) {
      for (std::uint64_t max_candidates :
           {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{100},
            approx::LshOptions{}.max_candidates}) {
        approx::LshOptions lsh;
        lsh.max_bucket = max_bucket;
        lsh.max_candidates = max_candidates;
        lsh.bands = 1 + rng.NextBounded(3);
        lsh.band_rows = 1 + rng.NextBounded(2);
        lsh.numeric_window = 1 + rng.NextBounded(4);
        lsh.hash_seed = rng.NextUint64();
        const std::string label = "seed " + std::to_string(seed) +
                                  " rows " + std::to_string(rows) +
                                  " max_bucket " + std::to_string(max_bucket) +
                                  " max_candidates " +
                                  std::to_string(max_candidates);
        LshStats want_stats;
        const std::vector<std::uint64_t> want = reference::CollectNearPairs(
            relation, *resolved, lsh, &want_stats, &cuts_in_pair,
            &cuts_in_self);
        LshStats got_stats;
        EXPECT_EQ(CollectNearPairs(relation, *resolved, lsh, &got_stats), want)
            << label;
        ExpectSameStats(got_stats, want_stats, label);
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 2400);
  // The budget cut part way through both kinds of value pair.
  EXPECT_GT(cuts_in_pair, 0);
  EXPECT_GT(cuts_in_self, 0);
}

// Relation of one string column holding `values`, one per row.
Relation SingleColumn(const std::vector<std::string>& values) {
  Relation relation(Schema({Attribute{"v", AttributeType::kString}}));
  for (const std::string& v : values) EXPECT_TRUE(relation.AddRow({v}).ok());
  return relation;
}

std::vector<std::uint64_t> CollectSingleColumn(const Relation& relation,
                                               const MatchingOptions& matching,
                                               const approx::LshOptions& lsh,
                                               LshStats* stats) {
  auto resolved = ResolveMatchingMetrics(relation.schema(), {"v"}, matching);
  EXPECT_TRUE(resolved.ok());
  if (!resolved.ok()) return {};
  return CollectNearPairs(relation, *resolved, lsh, stats);
}

TEST(LshIndexTest, NumericBlockingParsesLikeTheMetric) {
  MatchingOptions matching;
  matching.metric_overrides = {{"v", "numeric_abs"}};
  LshStats stats;
  const std::vector<std::uint64_t> bare = CollectSingleColumn(
      SingleColumn({"10", "11", "12", "13", "x", "y", "z"}), matching, {},
      &stats);
  EXPECT_EQ(bare.size(), 6u);
  // Padded values parse as the metric parses them; non-finite values
  // (which strtod accepts) have no place in the sorted window.
  const std::vector<std::uint64_t> padded = CollectSingleColumn(
      SingleColumn({"10 ", " 11", "12\t", " 13 ", "nan", "inf", "-inf"}),
      matching, {}, &stats);
  EXPECT_EQ(padded, bare);
}

TEST(LshIndexTest, TinyEditScaleKeepsOneLengthBucket) {
  const Relation relation = SingleColumn(
      {"a", "ab", "abc", "abcd", "abcdefghij", "abcdefghik", "ab", "xyz"});
  LshStats huge_stats;
  LshStats tiny_stats;
  MatchingOptions matching;
  matching.scale_overrides = {{"v", 1e-12}};
  const std::vector<std::uint64_t> huge =
      CollectSingleColumn(relation, matching, {}, &huge_stats);
  // dmax / 1e-320 is infinite: the bucket width must not be an
  // out-of-range float-to-integer conversion.
  matching.scale_overrides = {{"v", 1e-320}};
  const std::vector<std::uint64_t> tiny =
      CollectSingleColumn(relation, matching, {}, &tiny_stats);
  EXPECT_FALSE(huge.empty());
  EXPECT_EQ(tiny, huge);
  ExpectSameStats(tiny_stats, huge_stats, "scale 1e-320");
}

TEST(LshIndexTest, HugeCandidateCapDoesNotWrap) {
  CoraOptions options;
  options.num_entities = 20;
  const GeneratedData cora = GenerateCora(options);
  MatchingOptions matching;
  auto resolved = ResolveMatchingMetrics(cora.relation.schema(),
                                         {"author", "title"}, matching);
  ASSERT_TRUE(resolved.ok());
  approx::LshOptions lsh;
  lsh.max_candidates = std::uint64_t{1} << 40;
  LshStats want_stats;
  const std::vector<std::uint64_t> want =
      CollectNearPairs(cora.relation, *resolved, lsh, &want_stats);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want_stats.dropped, 0u);
  // At 2^63, max_candidates * 2 would wrap to 0 and drop every pair.
  for (std::uint64_t cap : {std::uint64_t{1} << 63,
                            std::numeric_limits<std::uint64_t>::max()}) {
    lsh.max_candidates = cap;
    LshStats got_stats;
    EXPECT_EQ(CollectNearPairs(cora.relation, *resolved, lsh, &got_stats),
              want);
    ExpectSameStats(got_stats, want_stats,
                    "max_candidates " + std::to_string(cap));
  }
}

// ---------------------------------------------------------------------
// Exact-mode gate on the classic builder

TEST(MatchingModeTest, ExactBuilderRejectsApproxMode) {
  const GeneratedData hotel = HotelExample();
  MatchingOptions options;
  options.mode = MatchingMode::kApprox;
  auto built =
      BuildMatchingRelation(hotel.relation, {"Address", "Region"}, options);
  EXPECT_FALSE(built.ok());
}

TEST(SampledBuilderTest, RejectsLegacyPairCap) {
  const GeneratedData hotel = HotelExample();
  MatchingOptions options;
  options.max_pairs = 500;
  auto built = SampledMatchingBuilder::Build(
      hotel.relation, {"Address", "Region"}, options, ApproxOptions{});
  EXPECT_FALSE(built.ok());
}

TEST(SampledBuilderTest, ExportsLshStatsAsCounters) {
  CoraOptions coptions;
  coptions.num_entities = 40;
  const GeneratedData cora = GenerateCora(coptions);
  MatchingOptions matching;
  matching.mode = MatchingMode::kApprox;
  ApproxOptions approx;
  approx.lsh.max_candidates = 500;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const char* const kNames[] = {
      "approx.lsh_raw_pairs", "approx.lsh_candidate_pairs",
      "approx.blocking_dropped", "approx.lsh_skipped_buckets"};
  std::vector<std::uint64_t> before;
  for (const char* name : kNames) {
    before.push_back(registry.GetCounter(name).value());
  }
  auto built = SampledMatchingBuilder::Build(
      cora.relation, {"author", "title", "venue"}, matching, approx);
  ASSERT_TRUE(built.ok());
  const LshStats& stats = (*built)->lsh_stats();
  const std::uint64_t expected[] = {stats.raw_pairs, stats.candidate_pairs,
                                    stats.dropped, stats.skipped_buckets};
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    EXPECT_EQ(registry.GetCounter(kNames[i]).value() - before[i], expected[i])
        << kNames[i];
  }
  EXPECT_GE(stats.raw_pairs, stats.candidate_pairs);
  EXPECT_EQ((*built)->near_pairs(), 500u);
  EXPECT_GT(stats.dropped, 0u);
}

// ---------------------------------------------------------------------
// Fraction 1.0 == exact pipeline, bit for bit (the acceptance
// guarantee). Runs Cora and Hotel, blocking on and off.

void ExpectBitIdentical(const DetermineResult& exact,
                        const ApproxDetermineResult& approx,
                        const std::string& label) {
  ASSERT_EQ(exact.patterns.size(), approx.determine.patterns.size()) << label;
  for (std::size_t p = 0; p < exact.patterns.size(); ++p) {
    const DeterminedPattern& e = exact.patterns[p];
    const DeterminedPattern& a = approx.determine.patterns[p];
    EXPECT_EQ(e.pattern.lhs, a.pattern.lhs) << label << " p=" << p;
    EXPECT_EQ(e.pattern.rhs, a.pattern.rhs) << label << " p=" << p;
    EXPECT_EQ(e.utility, a.utility) << label << " p=" << p;
    EXPECT_EQ(e.measures.lhs_count, a.measures.lhs_count) << label;
    EXPECT_EQ(e.measures.xy_count, a.measures.xy_count) << label;
    EXPECT_EQ(e.measures.d, a.measures.d) << label;
    EXPECT_EQ(e.measures.confidence, a.measures.confidence) << label;
    EXPECT_EQ(e.measures.quality, a.measures.quality) << label;
    // Exhaustive samples report exact answers: zero-width intervals
    // anchored on the true values.
    EXPECT_EQ(approx.intervals[p].utility.lo, e.utility) << label;
    EXPECT_EQ(approx.intervals[p].utility.hi, e.utility) << label;
  }
  EXPECT_EQ(exact.prior_mean_cq, approx.determine.prior_mean_cq) << label;
  EXPECT_TRUE(approx.exhaustive) << label;
  EXPECT_TRUE(approx.converged) << label;
  EXPECT_EQ(approx.sample_fraction, 1.0) << label;
}

struct FullFractionWorkload {
  std::string name;
  const Relation* relation;
  RuleSpec rule;
};

TEST(ApproxExactnessTest, FullFractionBitIdenticalToExactPipeline) {
  CoraOptions coptions;
  coptions.num_entities = 40;
  const GeneratedData cora = GenerateCora(coptions);
  const GeneratedData hotel = HotelExample();
  const std::vector<FullFractionWorkload> workloads = {
      {"cora", &cora.relation, RuleSpec{{"author", "title"}, {"venue"}}},
      {"hotel", &hotel.relation, RuleSpec{{"Address"}, {"Region"}}},
  };
  for (const FullFractionWorkload& w : workloads) {
    MatchingOptions matching;
    matching.dmax = 8;
    auto exact_matching =
        BuildMatchingRelation(*w.relation, w.rule.AllAttributes(), matching);
    ASSERT_TRUE(exact_matching.ok()) << w.name;
    const std::uint64_t total = exact_matching->num_tuples();

    DetermineOptions determine;
    determine.top_l = 3;
    determine.provider = "grid";
    auto exact = DetermineThresholds(*exact_matching, w.rule, determine);
    ASSERT_TRUE(exact.ok()) << w.name;

    for (const bool blocking : {true, false}) {
      ApproxDetermineOptions options;
      options.determine = determine;
      options.approx.sample_target = total;  // fraction 1.0
      options.approx.lsh.enabled = blocking;
      auto approx = ApproxDetermineThresholds(*w.relation, w.rule, matching,
                                              options);
      ASSERT_TRUE(approx.ok()) << w.name << " blocking=" << blocking;
      ExpectBitIdentical(*exact, *approx,
                         w.name + (blocking ? "+lsh" : "-lsh"));

      // The single-round discover path degenerates identically.
      auto sample = SampledMatchingBuilder::Build(
          *w.relation, w.rule.AllAttributes(), matching, options.approx);
      ASSERT_TRUE(sample.ok());
      auto single = ApproxDetermineWithSample(**sample, w.rule, options);
      ASSERT_TRUE(single.ok());
      ExpectBitIdentical(*exact, *single, w.name + "+single");
    }
  }
}

// ---------------------------------------------------------------------
// Streaming exact grid: identical counts to the grid provider built
// from the materialized matching relation.

TEST(ExactStreamTest, MatchesMaterializedGridCounts) {
  CoraOptions options;
  options.num_entities = 35;
  const GeneratedData cora = GenerateCora(options);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  MatchingOptions matching;
  matching.dmax = 6;

  auto exact_matching =
      BuildMatchingRelation(cora.relation, rule.AllAttributes(), matching);
  ASSERT_TRUE(exact_matching.ok());
  auto resolved = ResolveRule(*exact_matching, rule);
  ASSERT_TRUE(resolved.ok());
  auto grid = GridMeasureProvider::Create(*exact_matching, *resolved);
  ASSERT_TRUE(grid.ok());

  auto streamed = BuildStreamingGridProvider(cora.relation, rule, matching);
  ASSERT_TRUE(streamed.ok());
  ASSERT_EQ((*streamed)->total(), (*grid)->total());

  for (int x0 = 0; x0 <= matching.dmax; x0 += 2) {
    for (int x1 = 0; x1 <= matching.dmax; x1 += 3) {
      (*grid)->SetLhs({x0, x1});
      (*streamed)->SetLhs({x0, x1});
      ASSERT_EQ((*streamed)->lhs_count(), (*grid)->lhs_count())
          << x0 << "," << x1;
      for (int y = 0; y <= matching.dmax; ++y) {
        ASSERT_EQ((*streamed)->CountXY({y}), (*grid)->CountXY({y}))
            << x0 << "," << x1 << "->" << y;
      }
    }
  }

  // And the full determination lands on the same answer.
  DetermineOptions determine;
  determine.top_l = 2;
  determine.provider = "grid";
  auto exact = DetermineThresholds(*exact_matching, rule, determine);
  ASSERT_TRUE(exact.ok());
  auto from_stream = DetermineWithProvider(streamed->get(), rule.lhs.size(),
                                           rule.rhs.size(), matching.dmax,
                                           determine, "stream");
  ASSERT_TRUE(from_stream.ok());
  ASSERT_EQ(exact->patterns.size(), from_stream->patterns.size());
  for (std::size_t p = 0; p < exact->patterns.size(); ++p) {
    EXPECT_EQ(exact->patterns[p].pattern.lhs,
              from_stream->patterns[p].pattern.lhs);
    EXPECT_EQ(exact->patterns[p].utility, from_stream->patterns[p].utility);
  }
}

// ---------------------------------------------------------------------
// Interval coverage: at sampling fractions 0.1 and 0.3, the true
// D/C counts of the exact winner must land inside the reported 95%
// intervals in >= 95% of 200 fixed seeds. Deterministic by
// construction (fixed seeds); blocking is off so the test exercises
// the pure estimator. 200 seeds rather than a handful because the
// per-seed cover/miss outcome is itself Bernoulli(~0.95): a small
// window routinely shows 3-4 misses by chance even though the
// realized coverage measured over 500 seeds is 95.8-97.6%.

TEST(ApproxCoverageTest, IntervalsCoverTrueCounts) {
  CoraOptions coptions;
  coptions.num_entities = 60;
  const GeneratedData cora = GenerateCora(coptions);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  MatchingOptions matching;
  matching.dmax = 8;

  auto exact_matching =
      BuildMatchingRelation(cora.relation, rule.AllAttributes(), matching);
  ASSERT_TRUE(exact_matching.ok());
  const std::uint64_t total = exact_matching->num_tuples();
  auto resolved = ResolveRule(*exact_matching, rule);
  ASSERT_TRUE(resolved.ok());
  auto grid = GridMeasureProvider::Create(*exact_matching, *resolved);
  ASSERT_TRUE(grid.ok());

  DetermineOptions determine;
  determine.top_l = 1;
  determine.provider = "grid";
  auto exact = DetermineThresholds(*exact_matching, rule, determine);
  ASSERT_TRUE(exact.ok());
  ASSERT_FALSE(exact->patterns.empty());
  const Pattern winner = exact->patterns.front().pattern;
  (*grid)->SetLhs(winner.lhs);
  const std::uint64_t true_lhs = (*grid)->lhs_count();
  const std::uint64_t true_xy = (*grid)->CountXY(winner.rhs);
  const double true_confidence =
      static_cast<double>(true_xy) / static_cast<double>(true_lhs);

  for (const double fraction : {0.1, 0.3}) {
    int lhs_covered = 0;
    int xy_covered = 0;
    int confidence_covered = 0;
    const int kSeeds = 200;
    for (int seed = 0; seed < kSeeds; ++seed) {
      ApproxOptions approx;
      approx.sample_target =
          static_cast<std::uint64_t>(fraction * static_cast<double>(total));
      approx.seed = 1000 + seed;
      approx.lsh.enabled = false;
      auto sample = SampledMatchingBuilder::Build(
          cora.relation, rule.AllAttributes(), matching, approx);
      ASSERT_TRUE(sample.ok());
      auto provider = ApproxMeasureProvider::Create(
          **sample, rule, /*z=*/1.959963984540054, /*threads=*/1);
      ASSERT_TRUE(provider.ok());
      (*provider)->SetLhs(winner.lhs);
      const Interval lhs_iv = (*provider)->LhsCountInterval();
      const Interval xy_iv = (*provider)->XyCountInterval(winner.rhs);
      if (lhs_iv.Contains(static_cast<double>(true_lhs))) ++lhs_covered;
      if (xy_iv.Contains(static_cast<double>(true_xy))) ++xy_covered;
      // The conservative confidence bounds of refine.h.
      const double c_lo = lhs_iv.hi > 0 ? xy_iv.lo / lhs_iv.hi : 0.0;
      const double c_hi =
          lhs_iv.lo > 0 ? std::min(1.0, xy_iv.hi / lhs_iv.lo) : 1.0;
      if (true_confidence >= c_lo && true_confidence <= c_hi) {
        ++confidence_covered;
      }
    }
    const int kNeed = kSeeds * 95 / 100;
    EXPECT_GE(lhs_covered, kNeed) << "fraction " << fraction;
    EXPECT_GE(xy_covered, kNeed) << "fraction " << fraction;
    EXPECT_GE(confidence_covered, kNeed) << "fraction " << fraction;
  }
}

// ---------------------------------------------------------------------
// Thread determinism of the sampled mode (extends the PR-5 suite):
// identical seed => byte-identical strata and identical determination
// at every pool size.

TEST(ApproxDeterminismTest, SampledModeBitIdenticalAcrossThreads) {
  CoraOptions coptions;
  coptions.num_entities = 40;
  const GeneratedData cora = GenerateCora(coptions);
  const RuleSpec rule{{"author", "title"}, {"venue"}};

  const auto build = [&](std::size_t threads) {
    MatchingOptions matching;
    matching.dmax = 8;
    matching.threads = threads;
    ApproxOptions approx;
    approx.sample_target = 5000;
    approx.seed = 77;
    return SampledMatchingBuilder::Build(cora.relation, rule.AllAttributes(),
                                         matching, approx);
  };
  const auto determine = [&](std::size_t threads) {
    MatchingOptions matching;
    matching.dmax = 8;
    matching.threads = threads;
    ApproxDetermineOptions options;
    options.determine.top_l = 3;
    options.determine.threads = threads;
    options.approx.sample_target = 5000;
    options.approx.seed = 77;
    return ApproxDetermineThresholds(cora.relation, rule, matching, options);
  };

  auto reference = build(1);
  ASSERT_TRUE(reference.ok());
  const std::string near_bytes =
      SerializeMatchingRelation((*reference)->near());
  const std::string tail_bytes =
      SerializeMatchingRelation((*reference)->tail());
  auto reference_run = determine(1);
  ASSERT_TRUE(reference_run.ok());

  std::vector<std::size_t> thread_counts = {2, 7};
  if (DefaultThreads() > 1) thread_counts.push_back(DefaultThreads());
  for (const std::size_t threads : thread_counts) {
    auto sample = build(threads);
    ASSERT_TRUE(sample.ok());
    EXPECT_EQ(SerializeMatchingRelation((*sample)->near()), near_bytes)
        << "threads=" << threads;
    EXPECT_EQ(SerializeMatchingRelation((*sample)->tail()), tail_bytes)
        << "threads=" << threads;

    auto run = determine(threads);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->determine.patterns.size(),
              reference_run->determine.patterns.size());
    for (std::size_t p = 0; p < run->determine.patterns.size(); ++p) {
      EXPECT_EQ(run->determine.patterns[p].pattern.lhs,
                reference_run->determine.patterns[p].pattern.lhs)
          << "threads=" << threads;
      EXPECT_EQ(run->determine.patterns[p].pattern.rhs,
                reference_run->determine.patterns[p].pattern.rhs)
          << "threads=" << threads;
      EXPECT_EQ(run->determine.patterns[p].utility,
                reference_run->determine.patterns[p].utility)
          << "threads=" << threads;
      EXPECT_EQ(run->intervals[p].utility.lo,
                reference_run->intervals[p].utility.lo)
          << "threads=" << threads;
      EXPECT_EQ(run->intervals[p].utility.hi,
                reference_run->intervals[p].utility.hi)
          << "threads=" << threads;
    }
    EXPECT_EQ(run->rounds, reference_run->rounds);
    EXPECT_EQ(run->sample_fraction, reference_run->sample_fraction);
    EXPECT_EQ(run->near_pairs, reference_run->near_pairs);
    EXPECT_EQ(run->sampled_pairs, reference_run->sampled_pairs);
  }
}

// A tail grown in two steps, the first leaving an odd number of rows,
// starts its second fill mid-byte of the 4-bit columns; it must still
// match a one-thread build.
TEST(SampledBuilderTest, OddOffsetGrowMatchesSingleThread) {
  CoraOptions coptions;
  coptions.num_entities = 40;
  const GeneratedData cora = GenerateCora(coptions);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  const auto build = [&](std::size_t threads) {
    MatchingOptions matching;
    matching.dmax = 8;
    matching.threads = threads;
    ApproxOptions approx;
    approx.sample_target = 1001;
    approx.seed = 78;
    auto sample = SampledMatchingBuilder::Build(
        cora.relation, rule.AllAttributes(), matching, approx);
    if (!sample.ok()) return std::unique_ptr<SampledMatchingBuilder>();
    EXPECT_EQ((*sample)->tail_sampled() % 2, 1u);
    EXPECT_GT((*sample)->GrowTo(2500), 0u);
    return std::move(*sample);
  };
  const auto reference = build(1);
  ASSERT_NE(reference, nullptr);
  for (const std::size_t threads : {2u, 7u}) {
    const auto sample = build(threads);
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(SerializeMatchingRelation(sample->tail()),
              SerializeMatchingRelation(reference->tail()))
        << "threads=" << threads;
    EXPECT_EQ(SerializeMatchingRelation(sample->near()),
              SerializeMatchingRelation(reference->near()))
        << "threads=" << threads;
  }
}

// Every stored near and tail row holds ResolvedMetrics::ComputeLevels
// of its own pair, at any thread count and after a GrowTo appends to
// the tail. Title and author have more distinct values than pairs to
// compute here, so they take the one-to-many rows, not tables.
TEST(SampledBuilderTest, StoredRowsMatchComputeLevels) {
  CoraOptions coptions;
  coptions.num_entities = 60;
  const GeneratedData cora = GenerateCora(coptions);
  const std::vector<std::string> attrs = {"author", "title", "venue", "year"};
  for (const std::size_t threads : {1u, 2u, 7u}) {
    MatchingOptions matching;
    matching.dmax = 10;
    matching.threads = threads;
    matching.metric_overrides = {{"year", "qgram2"}};
    ApproxOptions approx;
    approx.sample_target = 700;
    approx.seed = 79;
    auto sample =
        SampledMatchingBuilder::Build(cora.relation, attrs, matching, approx);
    ASSERT_TRUE(sample.ok());
    auto resolved =
        ResolveMatchingMetrics(cora.relation.schema(), attrs, matching);
    ASSERT_TRUE(resolved.ok());
    const auto expect_rows = [&](const MatchingRelation& m,
                                 const std::string& label) {
      std::vector<Level> want(attrs.size());
      for (std::size_t row = 0; row < m.num_tuples(); ++row) {
        const auto [i, j] = m.pair(row);
        resolved->ComputeLevels(cora.relation, i, j, want.data());
        for (std::size_t a = 0; a < attrs.size(); ++a) {
          ASSERT_EQ(m.level(row, a), want[a])
              << label << " row " << row << " (" << i << "," << j
              << ") attr " << attrs[a] << " threads=" << threads;
        }
      }
    };
    EXPECT_GT((*sample)->near_pairs(), 0u);
    for (const char* attr : {"author", "title"}) {
      const std::uint64_t d =
          InternColumn(cora.relation, *cora.relation.schema().IndexOf(attr))
              .distinct();
      ASSERT_GE(d * (d - 1) / 2, (*sample)->near_pairs() + 700) << attr;
    }
    expect_rows((*sample)->near(), "near");
    expect_rows((*sample)->tail(), "tail");
    EXPECT_GT((*sample)->GrowTo(2100), 0u);
    expect_rows((*sample)->tail(), "grown tail");
  }
}

// ---------------------------------------------------------------------
// JSON surface

TEST(ApproxJsonTest, ResultDocumentIsWellFormed) {
  const GeneratedData hotel = HotelExample();
  const RuleSpec rule{{"Address"}, {"Region"}};
  MatchingOptions matching;
  ApproxDetermineOptions options;
  options.determine.top_l = 2;
  options.approx.sample_target = 200;
  auto result = ApproxDetermineThresholds(hotel.relation, rule, matching,
                                          options);
  ASSERT_TRUE(result.ok());
  const std::string json = approx::ApproxResultToJson(*result, rule);
  testutil::JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"estimated\""), std::string::npos);
  EXPECT_NE(json.find("\"utility_lo\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_fraction\""), std::string::npos);
}

}  // namespace
}  // namespace dd
