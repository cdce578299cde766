#include "metric/metric.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "metric/levenshtein.h"

namespace dd {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  LevenshteinMetric lev;
  EXPECT_DOUBLE_EQ(lev.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(lev.Distance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(lev.Distance("kitten", "sitting"), 3.0);
  EXPECT_DOUBLE_EQ(lev.Distance("flaw", "lawn"), 2.0);
  EXPECT_DOUBLE_EQ(lev.Distance("", "abc"), 3.0);
  EXPECT_DOUBLE_EQ(lev.Distance("abc", ""), 3.0);
}

TEST(LevenshteinTest, PaperRegionValues) {
  // "Chicago" vs "Chicago, IL": 4 inserts.
  LevenshteinMetric lev;
  EXPECT_DOUBLE_EQ(lev.Distance("Chicago", "Chicago, IL"), 4.0);
  EXPECT_DOUBLE_EQ(lev.Distance("Boston, MA", "Chicago, MA"), 7.0);
}

TEST(LevenshteinTest, BoundedMatchesExactWithinCap) {
  LevenshteinMetric lev;
  Rng rng(5);
  auto random_string = [&](std::size_t max_len) {
    std::string s(rng.NextBounded(max_len + 1), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.NextBounded(5));
    return s;
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = random_string(14);
    std::string b = random_string(14);
    double exact = lev.Distance(a, b);
    for (double cap : {0.0, 1.0, 3.0, 8.0, 20.0}) {
      double bounded = lev.BoundedDistance(a, b, cap);
      if (exact <= cap) {
        EXPECT_DOUBLE_EQ(bounded, exact) << a << " vs " << b;
      } else {
        EXPECT_GT(bounded, cap) << a << " vs " << b;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Kernel equivalence (src/metric/levenshtein.h): the Myers bit-parallel
// kernel and the dmax-banded early-exit kernel must agree with the
// reference DP on every input where their contracts apply. Exhaustive
// randomized sweep over lengths 0..200 and every cap band.

namespace {

std::string RandomBytes(Rng& rng, std::size_t length, int alphabet) {
  std::string s(length, '\0');
  for (char& c : s) {
    // Include non-ASCII bytes: the kernels are byte-based and must not
    // care about sign or encoding.
    c = static_cast<char>(rng.NextBounded(static_cast<std::uint64_t>(alphabet)));
  }
  return s;
}

}  // namespace

TEST(LevenshteinKernelTest, Myers64MatchesReferenceDp) {
  Rng rng(71);
  for (int trial = 0; trial < 2000; ++trial) {
    // Myers' precondition: min(|a|, |b|) <= 64. The longer side may be
    // anything (test up to 200).
    const std::size_t la = rng.NextBounded(65);
    const std::size_t lb = rng.NextBounded(201);
    const int alphabet = trial % 2 == 0 ? 4 : 256;
    const std::string a = RandomBytes(rng, la, alphabet);
    const std::string b = RandomBytes(rng, lb, alphabet);
    ASSERT_EQ(lev::Myers64(a, b), lev::ReferenceDp(a, b))
        << "trial " << trial << " |a|=" << la << " |b|=" << lb;
  }
}

TEST(LevenshteinKernelTest, BandedMatchesReferenceDpWithinCap) {
  Rng rng(72);
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t la = rng.NextBounded(201);
    const std::size_t lb = rng.NextBounded(201);
    const int alphabet = trial % 2 == 0 ? 3 : 256;
    const std::string a = RandomBytes(rng, la, alphabet);
    const std::string b = RandomBytes(rng, lb, alphabet);
    const std::size_t exact = lev::ReferenceDp(a, b);
    for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{5}, std::size_t{10}, std::size_t{50},
                            std::size_t{200}, std::size_t{400}}) {
      const std::size_t banded = lev::Banded(a, b, cap);
      if (exact <= cap) {
        ASSERT_EQ(banded, exact) << "cap=" << cap << " trial " << trial;
      } else {
        ASSERT_GT(banded, cap) << "cap=" << cap << " trial " << trial;
      }
    }
  }
}

TEST(LevenshteinKernelTest, EdgeLengths) {
  // Empty and boundary-length (63/64/65) inputs on every kernel.
  const std::string empty;
  const std::string s63(63, 'x');
  const std::string s64(64, 'x');
  const std::string s65(65, 'x');
  EXPECT_EQ(lev::ReferenceDp(empty, empty), 0u);
  EXPECT_EQ(lev::Myers64(empty, s65), 65u);
  EXPECT_EQ(lev::Myers64(s63, s64), 1u);
  EXPECT_EQ(lev::Myers64(s64, s64), 0u);
  EXPECT_EQ(lev::Banded(s64, s65, 0), 1u);  // > cap sentinel (cap + 1)
  EXPECT_EQ(lev::Banded(s64, s65, 1), 1u);
  EXPECT_EQ(lev::Banded(empty, s65, 100), 65u);
}

// BoundedDistance's dispatch (exact Myers under 64, banded above) is
// level-exact: every return value buckets to the same dmax level the
// reference distance would. Full dmax band sweep per pair.
TEST(LevenshteinKernelTest, BoundedDistanceLevelEquivalent) {
  LevenshteinMetric metric;
  Rng rng(73);
  const int dmax = 10;
  for (int trial = 0; trial < 600; ++trial) {
    const std::string a = RandomBytes(rng, rng.NextBounded(201), 5);
    const std::string b = RandomBytes(rng, rng.NextBounded(201), 5);
    const double exact = metric.Distance(a, b);
    for (int cap_level = 0; cap_level <= dmax; ++cap_level) {
      const double cap = static_cast<double>(cap_level);
      const double bounded = metric.BoundedDistance(a, b, cap);
      if (exact <= cap) {
        ASSERT_EQ(bounded, exact) << "cap=" << cap << " trial " << trial;
      } else {
        ASSERT_GT(bounded, cap) << "cap=" << cap << " trial " << trial;
      }
    }
    // Huge and fractional caps exercise the cap >= max_len fast path
    // and the floor semantics.
    ASSERT_EQ(metric.BoundedDistance(a, b, 1e9), exact);
    const double frac = metric.BoundedDistance(a, b, 2.7);
    if (exact <= 2.0) {
      ASSERT_EQ(frac, exact);
    } else {
      ASSERT_GT(frac, 2.7);
    }
  }
}

// A NaN cap means no cap: the exact distance, never an out-of-range
// double -> size_t conversion.
TEST(LevenshteinTest, NanCapReturnsExactDistance) {
  LevenshteinMetric lev;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string long_a(80, 'a');
  const std::string long_b = std::string(70, 'a') + "bbbbbbbbbbbbbbb";
  EXPECT_EQ(lev.BoundedDistance("kitten", "sitting", nan), 3.0);
  EXPECT_EQ(lev.BoundedDistance("", "abcdef", nan), 6.0);
  EXPECT_EQ(lev.BoundedDistance(long_a, long_b, nan),
            lev.Distance(long_a, long_b));
  std::vector<const std::string*> values = {&long_a, &long_b};
  double row = 0.0;
  const std::uint32_t other = 1;
  lev.OneToMany(values, nan)->Row(0, &other, 1, &row);
  EXPECT_EQ(row, lev.Distance(long_a, long_b));
}

// ---------------------------------------------------------------------
// Capped kernels and the one-to-many path. Every result must be exact
// when the distance is <= cap and > cap otherwise. Lengths cross the
// 64-byte word boundary; some pairs differ only by bytes of the same
// 64-bin fold, where the bag-distance bound sees no difference at all.

namespace {

// `s` with about half of its bytes swapped for another byte of the
// same CharBin, plus up to three random edits.
std::string SameBinVariant(Rng& rng, const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (!rng.NextBool(0.5)) continue;
    std::vector<char> same;
    for (int x = 0; x < 256; ++x) {
      if (lev::CharBin(static_cast<unsigned char>(x)) ==
          lev::CharBin(static_cast<unsigned char>(c))) {
        same.push_back(static_cast<char>(x));
      }
    }
    c = same[rng.NextBounded(same.size())];
  }
  const std::size_t edits = rng.NextBounded(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.NextBounded(out.size() + 1);
    const char c = static_cast<char>(rng.NextBounded(256));
    if (out.empty() || rng.NextBool(0.5)) {
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), c);
    } else {
      out.erase(std::min(at, out.size() - 1), 1);
    }
  }
  return out;
}

// Values of lengths 0..130 over alphabets of 4 and 256 bytes, half of
// them same-bin variants of an earlier value.
std::vector<std::string> KernelTestValues(Rng& rng, std::size_t count) {
  std::vector<std::string> values;
  for (std::size_t v = 0; v < count; ++v) {
    if (v % 2 == 1) {
      values.push_back(SameBinVariant(rng, values[rng.NextBounded(v)]));
    } else {
      values.push_back(
          RandomBytes(rng, rng.NextBounded(131), v % 4 == 0 ? 4 : 256));
    }
  }
  return values;
}

// The consecutive ids [begin, end): a dense run of a table row.
std::vector<std::uint32_t> IdRange(std::size_t begin, std::size_t end) {
  std::vector<std::uint32_t> ids;
  for (std::size_t j = begin; j < end; ++j) {
    ids.push_back(static_cast<std::uint32_t>(j));
  }
  return ids;
}

void ExpectWithinContract(double got, std::size_t exact, double cap,
                          const std::string& label) {
  if (static_cast<double>(exact) <= cap || std::isnan(cap)) {
    ASSERT_EQ(got, static_cast<double>(exact)) << label;
  } else {
    ASSERT_GT(got, cap) << label;
  }
}

}  // namespace

TEST(LevenshteinKernelTest, CappedMyersMatchesReferenceDp) {
  Rng rng(74);
  const std::vector<std::string> values = KernelTestValues(rng, 400);
  lev::Pattern pattern;  // reassigned per pair: stale slots must clear
  for (std::size_t trial = 0; trial < 3000; ++trial) {
    std::string a = values[rng.NextBounded(values.size())];
    if (a.size() > 64) a.resize(rng.NextBounded(65));  // the pattern side
    const std::string b = trial % 3 == 0
                              ? SameBinVariant(rng, a)
                              : values[rng.NextBounded(values.size())];
    const std::size_t exact = lev::ReferenceDp(a, b);
    ASSERT_LE(lev::BagDistance(lev::Histogram(a), lev::Histogram(b)), exact);
    pattern.Assign(a);
    for (const std::size_t cap :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{5},
          std::size_t{10}, std::size_t{50}, std::size_t{131}, lev::kNoCap}) {
      const std::string label = "cap=" + std::to_string(cap) + " trial " +
                                std::to_string(trial);
      const std::size_t want = exact <= cap ? exact : cap + 1;
      ASSERT_EQ(lev::Myers64(pattern, b, cap), want) << label;
      ASSERT_EQ(lev::Myers64(a, b, cap), want) << label;
      ASSERT_EQ(lev::Myers64(b, a, cap), want) << label;
    }
  }
}

TEST(LevenshteinOneToManyTest, RowsMatchReferenceDp) {
  Rng rng(75);
  const std::vector<std::string> strings = KernelTestValues(rng, 120);
  std::vector<const std::string*> values;
  for (const std::string& s : strings) values.push_back(&s);
  const std::size_t n = values.size();
  std::vector<std::size_t> exact(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      exact[i * n + j] = lev::ReferenceDp(*values[i], *values[j]);
    }
  }
  LevenshteinMetric metric;
  for (const double cap : {0.0, 1.0, 2.0, 5.0, 10.0, 50.0, 2.7, 131.0, 1e9,
                           std::numeric_limits<double>::quiet_NaN()}) {
    const auto rows = metric.OneToMany(values, cap);
    std::vector<double> out(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      // A full row, then a run from its middle (as a ParallelFor chunk
      // boundary would cut it).
      const std::vector<std::uint32_t> row = IdRange(i + 1, n);
      rows->Row(static_cast<std::uint32_t>(i), row.data(), row.size(),
                out.data());
      for (std::size_t j = i + 1; j < n; ++j) {
        ExpectWithinContract(out[j - i - 1], exact[i * n + j], cap,
                             "cap=" + std::to_string(cap) + " (" +
                                 std::to_string(i) + "," + std::to_string(j) +
                                 ")");
      }
      const std::size_t mid = (i + 1 + n) / 2;
      const std::vector<std::uint32_t> tail = IdRange(mid, n);
      rows->Row(static_cast<std::uint32_t>(i), tail.data(), tail.size(),
                out.data());
      for (std::size_t j = mid; j < n; ++j) {
        ExpectWithinContract(out[j - mid], exact[i * n + j], cap, "mid run");
      }
    }
  }
}

// The row kernel is called from ParallelFor chunks in the matching
// build; concurrent rows must agree with serial ones.
TEST(LevenshteinOneToManyTest, ParallelRowsMatchSerial) {
  Rng rng(76);
  const std::vector<std::string> strings = KernelTestValues(rng, 150);
  std::vector<const std::string*> values;
  for (const std::string& s : strings) values.push_back(&s);
  const std::size_t n = values.size();
  LevenshteinMetric metric;
  const auto rows = metric.OneToMany(values, 10.0);
  std::vector<double> serial(n * n, -1.0);
  const auto row = [&](std::size_t i, double* out) {
    const std::vector<std::uint32_t> ids = IdRange(i + 1, n);
    rows->Row(static_cast<std::uint32_t>(i), ids.data(), ids.size(), out);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) row(i, &serial[i * n + i + 1]);
  for (const std::size_t threads : {2u, 7u}) {
    std::vector<double> parallel(n * n, -1.0);
    ParallelFor(n - 1, threads,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    row(i, &parallel[i * n + i + 1]);
                  }
                });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

// Metrics without an override get the default one-to-many loop, which
// must equal BoundedDistance pair by pair.
TEST(OneToManyDefaultTest, MatchesPairwiseBoundedDistance) {
  const std::vector<std::string> strings = {
      "", "a", "abc", "West Wood Hotel", "Fifth Avenue, 61st Street",
      "5th Avenue, 61st St.", "Chicago, IL", "chicago", "12", "12.5", "-3",
      "1e3", "abc def abc"};
  std::vector<const std::string*> values;
  for (const std::string& s : strings) values.push_back(&s);
  const std::size_t n = values.size();
  for (const char* name : {"qgram2", "qgram3", "jaccard", "numeric_abs"}) {
    auto metric = MetricRegistry::Default().Create(name);
    ASSERT_TRUE(metric.ok());
    for (const double cap : {0.0, 0.5, 3.0, 1e9}) {
      const auto rows = (*metric)->OneToMany(values, cap);
      std::vector<double> out(n);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::vector<std::uint32_t> row = IdRange(i + 1, n);
        rows->Row(static_cast<std::uint32_t>(i), row.data(), row.size(),
                  out.data());
        for (std::size_t j = i + 1; j < n; ++j) {
          EXPECT_EQ(out[j - i - 1],
                    (*metric)->BoundedDistance(*values[i], *values[j], cap))
              << name << " cap=" << cap << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

// Sorted random ids like the rows of the sampled build: repeats, the
// row's own id, and ids on both sides of it.
std::vector<std::uint32_t> SparseIds(Rng& rng, std::size_t n,
                                     std::uint32_t i) {
  std::vector<std::uint32_t> ids = {i, i};
  const std::size_t count = rng.NextBounded(3 * n);
  for (std::size_t k = 0; k < count; ++k) {
    ids.push_back(static_cast<std::uint32_t>(rng.NextBounded(n)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The id-list row of every built-in metric against its per-pair
// BoundedDistance, over empty, equal, same-bin, token and numeric
// values and values longer than 64 bytes, at negative, fractional,
// huge, infinite and NaN caps. Within the cap (or with no cap) the
// results must be equal; above it both must exceed the cap.
TEST(OneToManyTest, SparseRowsMatchBoundedDistanceForEveryMetric) {
  Rng rng(77);
  std::vector<std::string> strings = KernelTestValues(rng, 60);
  for (const char* s : {"", "", "12", "12.5", "-3", "1e3", "abc def abc",
                        "def abc", "West Wood Hotel", "west wood hotel"}) {
    strings.push_back(s);
  }
  std::vector<const std::string*> values;
  for (const std::string& s : strings) values.push_back(&s);
  const std::size_t n = values.size();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const char* name : {"levenshtein", "qgram2", "qgram3", "jaccard",
                           "cosine", "numeric_abs"}) {
    auto metric = MetricRegistry::Default().Create(name);
    ASSERT_TRUE(metric.ok());
    for (const double cap :
         {-1.0, 0.0, 0.5, 1.0, 2.7, 5.0, 10.0, 131.0, 1e9, 1e300, inf, nan}) {
      const auto rows = (*metric)->OneToMany(values, cap);
      for (int trial = 0; trial < 12; ++trial) {
        const auto i = static_cast<std::uint32_t>(rng.NextBounded(n));
        const std::vector<std::uint32_t> ids = SparseIds(rng, n, i);
        std::vector<double> out(ids.size());
        rows->Row(i, ids.data(), ids.size(), out.data());
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const double want =
              (*metric)->BoundedDistance(*values[i], *values[ids[k]], cap);
          const std::string label = std::string(name) + " cap=" +
                                    std::to_string(cap) + " (" +
                                    std::to_string(i) + "," +
                                    std::to_string(ids[k]) + ")";
          if (std::isnan(cap) || !(want > cap)) {
            ASSERT_EQ(out[k], want) << label;
          } else {
            ASSERT_GT(out[k], cap) << label;
          }
        }
      }
    }
  }
}

// Metric axioms checked across all string metrics.
class MetricAxiomTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MetricAxiomTest, NonNegativeSymmetricIdentity) {
  auto metric = MetricRegistry::Default().Create(GetParam());
  ASSERT_TRUE(metric.ok());
  const std::vector<std::string> values = {
      "", "a", "abc", "West Wood Hotel", "Fifth Avenue, 61st Street",
      "5th Avenue, 61st St.", "Chicago, IL", "chicago"};
  for (const auto& a : values) {
    EXPECT_DOUBLE_EQ(metric.value()->Distance(a, a), 0.0) << a;
    for (const auto& b : values) {
      double ab = metric.value()->Distance(a, b);
      double ba = metric.value()->Distance(b, a);
      EXPECT_GE(ab, 0.0);
      EXPECT_DOUBLE_EQ(ab, ba) << a << " vs " << b;
    }
  }
}

TEST_P(MetricAxiomTest, TriangleInequalityOnTextMetrics) {
  // Levenshtein, q-gram (multiset symmetric difference) and Jaccard are
  // true metrics. Cosine distance is not guaranteed to satisfy the
  // triangle inequality, so it is excluded here.
  if (GetParam() == "cosine") GTEST_SKIP() << "cosine is not a metric";
  auto metric = MetricRegistry::Default().Create(GetParam());
  ASSERT_TRUE(metric.ok());
  const std::vector<std::string> values = {"abcd", "abed", "xbed", "xyed",
                                           "hello world", "hello there"};
  for (const auto& a : values) {
    for (const auto& b : values) {
      for (const auto& c : values) {
        EXPECT_LE(metric.value()->Distance(a, c),
                  metric.value()->Distance(a, b) +
                      metric.value()->Distance(b, c) + 1e-9)
            << a << "," << b << "," << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStringMetrics, MetricAxiomTest,
                         ::testing::Values("levenshtein", "qgram2", "qgram3",
                                           "jaccard", "cosine"));

TEST(QGramTest, KnownProfileDifference) {
  QGramMetric q2(2);
  // Identical strings.
  EXPECT_DOUBLE_EQ(q2.Distance("abc", "abc"), 0.0);
  // One substitution changes a bounded number of q-grams.
  EXPECT_GT(q2.Distance("abc", "abd"), 0.0);
  EXPECT_LE(q2.Distance("abc", "abd"), 4.0);
}

TEST(QGramTest, BoundsEditDistanceFromBelowScaled) {
  // |G(a)| - based q-gram distance <= 2*q*edit_distance.
  QGramMetric q2(2);
  LevenshteinMetric lev;
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::string a = "prefix string value";
    std::string b = a;
    int edits = static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits && !b.empty(); ++e) {
      b[rng.NextBounded(b.size())] = 'z';
    }
    EXPECT_LE(q2.Distance(a, b), 2.0 * 2.0 * lev.Distance(a, b) + 1e-9);
  }
}

TEST(JaccardTest, KnownValues) {
  JaccardMetric j;
  EXPECT_DOUBLE_EQ(j.Distance("a b c", "a b c"), 0.0);
  EXPECT_DOUBLE_EQ(j.Distance("a b", "c d"), 1.0);
  EXPECT_NEAR(j.Distance("a b c", "b c d"), 0.5, 1e-12);  // 2/4 shared
  EXPECT_DOUBLE_EQ(j.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(j.Distance("x", ""), 1.0);
  EXPECT_DOUBLE_EQ(j.Distance("A b", "a B"), 0.0);  // Case-folded tokens.
}

TEST(CosineTest, KnownValues) {
  CosineMetric c;
  EXPECT_DOUBLE_EQ(c.Distance("a b", "a b"), 0.0);
  EXPECT_DOUBLE_EQ(c.Distance("a", "b"), 1.0);
  // Orthogonal halves: cos = 1/2.
  EXPECT_NEAR(c.Distance("a b", "a c"), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(c.Distance("x", ""), 1.0);
}

TEST(CosineTest, TermFrequencyWeighting) {
  CosineMetric c;
  // "a a b" = (2,1), "a b b" = (1,2): cos = 4/5.
  EXPECT_NEAR(c.Distance("a a b", "a b b"), 1.0 - 0.8, 1e-12);
}

TEST(NumericAbsTest, ParsesAndDiffs) {
  NumericAbsMetric m;
  EXPECT_DOUBLE_EQ(m.Distance("3", "7"), 4.0);
  EXPECT_DOUBLE_EQ(m.Distance("-2.5", "2.5"), 5.0);
  EXPECT_DOUBLE_EQ(m.Distance("1995", "1995"), 0.0);
  EXPECT_TRUE(std::isinf(m.Distance("abc", "3")));
  EXPECT_DOUBLE_EQ(m.Distance("abc", "abc"), 0.0);  // Equal strings.
}

TEST(RegistryTest, BuiltinsPresent) {
  auto names = MetricRegistry::Default().Names();
  for (const char* expected :
       {"cosine", "jaccard", "levenshtein", "numeric_abs", "qgram2",
        "qgram3"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(RegistryTest, CreateUnknownFails) {
  EXPECT_EQ(MetricRegistry::Default().Create("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, DuplicateRegistrationFails) {
  MetricRegistry local;
  EXPECT_TRUE(local
                  .Register("custom",
                            [] { return std::make_unique<LevenshteinMetric>(); })
                  .ok());
  EXPECT_EQ(local
                .Register("custom",
                          [] { return std::make_unique<LevenshteinMetric>(); })
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(RegistryTest, NormalizedFlags) {
  EXPECT_FALSE(LevenshteinMetric().is_normalized());
  EXPECT_FALSE(QGramMetric(2).is_normalized());
  EXPECT_TRUE(JaccardMetric().is_normalized());
  EXPECT_TRUE(CosineMetric().is_normalized());
}

}  // namespace
}  // namespace dd
