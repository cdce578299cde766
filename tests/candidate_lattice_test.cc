#include "core/candidate_lattice.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dd {
namespace {

TEST(CandidateLatticeTest, SizeAndEncoding) {
  CandidateLattice lat(2, 9);
  EXPECT_EQ(lat.size(), 100u);
  EXPECT_EQ(lat.alive_count(), 100u);
  for (std::size_t idx = 0; idx < lat.size(); ++idx) {
    EXPECT_EQ(lat.IndexOf(lat.LevelsOf(idx)), idx);
  }
  EXPECT_EQ(lat.LevelsOf(0), (Levels{0, 0}));
  EXPECT_EQ(lat.LevelsOf(99), (Levels{9, 9}));
}

TEST(CandidateLatticeTest, KillIsIdempotent) {
  CandidateLattice lat(1, 4);
  EXPECT_TRUE(lat.Kill(2));
  EXPECT_FALSE(lat.Kill(2));
  EXPECT_EQ(lat.alive_count(), 4u);
  EXPECT_FALSE(lat.IsAlive(2));
  EXPECT_TRUE(lat.IsAlive(3));
}

TEST(CandidateLatticeTest, PruneKillsDominatedLowQualityOnly) {
  // dims=2, dmax=9. prune(<5,5>, 0.5): kills cells <= (5,5) with
  // Q <= 0.5, i.e. level sum >= 9.
  CandidateLattice lat(2, 9);
  std::size_t killed = lat.Prune({5, 5}, 0.5);
  // Cells in [0,5]^2 with sum >= 9: (4,5),(5,4),(5,5) -> 3 cells.
  EXPECT_EQ(killed, 3u);
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({5, 5})));
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({4, 5})));
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({5, 4})));
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({3, 5})));   // sum 8, Q > 0.5
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({9, 9})));   // not dominated
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({6, 3})));   // outside the box
}

TEST(CandidateLatticeTest, PruneWithFullDominatorIsGlobalQualityCut) {
  // prune(ϕ0 = all-dmax, q) implements S0 of Proposition 1.
  CandidateLattice lat(2, 4);
  std::size_t killed = lat.Prune({4, 4}, 0.25);
  // Q <= 0.25 <=> sum >= 6: cells (2,4),(3,3),(3,4),(4,2),(4,3),(4,4),(2..)
  // sum>=6 over [0,4]^2: count pairs with a+b >= 6 -> (2,4),(3,3),(3,4),
  // (4,2),(4,3),(4,4) = 6.
  EXPECT_EQ(killed, 6u);
  EXPECT_EQ(lat.alive_count(), 25u - 6u);
}

TEST(CandidateLatticeTest, PruneQualityAboveOneKillsWholeBox) {
  CandidateLattice lat(2, 3);
  std::size_t killed = lat.Prune({1, 1}, 1.0);
  EXPECT_EQ(killed, 4u);  // The whole [0,1]^2 box.
}

TEST(CandidateLatticeTest, PruneCountsOnlyAliveCells) {
  CandidateLattice lat(1, 5);
  lat.Kill(lat.IndexOf({5}));
  std::size_t killed = lat.Prune({5}, 0.0);  // Only level 5 has Q = 0.
  EXPECT_EQ(killed, 0u);
}

TEST(CandidateLatticeTest, BoundaryQualityIsPruned) {
  // Proposition 1 prunes Q(ϕk) <= Vmax inclusively.
  CandidateLattice lat(1, 10);
  lat.Prune({10}, 0.5);  // Q(5) = 0.5 exactly must die.
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({5})));
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({4})));  // Q = 0.6
}

class OrderTest : public ::testing::TestWithParam<ProcessingOrder> {};

TEST_P(OrderTest, IsAPermutation) {
  auto order = CandidateLattice::MakeOrder(2, 9, GetParam());
  EXPECT_EQ(order.size(), 100u);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, OrderTest,
                         ::testing::Values(ProcessingOrder::kMidFirst,
                                           ProcessingOrder::kTopFirst,
                                           ProcessingOrder::kBottomFirst,
                                           ProcessingOrder::kLexicographic));

TEST(OrderTest, TopFirstStartsAtAllDmax) {
  auto order = CandidateLattice::MakeOrder(2, 9, ProcessingOrder::kTopFirst);
  CandidateLattice lat(2, 9);
  EXPECT_EQ(lat.LevelsOf(order.front()), (Levels{9, 9}));
  EXPECT_EQ(lat.LevelsOf(order.back()), (Levels{0, 0}));
}

TEST(OrderTest, BottomFirstStartsAtZero) {
  auto order =
      CandidateLattice::MakeOrder(2, 9, ProcessingOrder::kBottomFirst);
  CandidateLattice lat(2, 9);
  EXPECT_EQ(lat.LevelsOf(order.front()), (Levels{0, 0}));
}

TEST(OrderTest, MidFirstStartsNearMiddleSum) {
  auto order = CandidateLattice::MakeOrder(2, 9, ProcessingOrder::kMidFirst);
  CandidateLattice lat(2, 9);
  Levels first = lat.LevelsOf(order.front());
  EXPECT_EQ(LevelSum(first), 9);  // dims*dmax/2 = 9 for 2x9.
  // The extremes come last.
  Levels last = lat.LevelsOf(order.back());
  EXPECT_TRUE(LevelSum(last) == 0 || LevelSum(last) == 18);
}

TEST(OrderTest, ProcessingOrderNames) {
  EXPECT_STREQ(ProcessingOrderName(ProcessingOrder::kMidFirst), "mid-first");
  EXPECT_STREQ(ProcessingOrderName(ProcessingOrder::kTopFirst), "top-first");
}

TEST(CandidateLatticeTest, ThreeDimensionalEncoding) {
  CandidateLattice lat(3, 4);
  EXPECT_EQ(lat.size(), 125u);
  Levels l = {1, 2, 3};
  EXPECT_EQ(lat.LevelsOf(lat.IndexOf(l)), l);
}

// The plain odometer Prune the S0 floor replaced: visits every cell of
// the dominated box, recomputing its level sum and index.
class ReferenceLattice {
 public:
  ReferenceLattice(std::size_t dims, int dmax) : dims_(dims), dmax_(dmax) {
    std::size_t size = 1;
    for (std::size_t d = 0; d < dims; ++d) size *= dmax + 1;
    alive_.assign(size, 1);
    alive_count_ = size;
  }

  std::size_t alive_count() const { return alive_count_; }
  bool IsAlive(std::size_t idx) const { return alive_[idx] != 0; }

  bool Kill(std::size_t idx) {
    if (alive_[idx] == 0) return false;
    alive_[idx] = 0;
    --alive_count_;
    return true;
  }

  std::size_t Prune(const Levels& dominator, double max_quality,
                    std::vector<std::size_t>* kills) {
    const double min_sum_d =
        static_cast<double>(dims_) * dmax_ * (1.0 - max_quality);
    const long min_sum = static_cast<long>(std::ceil(min_sum_d - 1e-9));
    std::size_t killed = 0;
    Levels cursor(dims_, 0);
    for (;;) {
      if (LevelSum(cursor) >= min_sum) {
        const std::size_t idx = IndexOf(cursor);
        if (Kill(idx)) {
          ++killed;
          kills->push_back(idx);
        }
      }
      std::size_t d = 0;
      while (d < dims_ && cursor[d] == dominator[d]) {
        cursor[d] = 0;
        ++d;
      }
      if (d == dims_) break;
      ++cursor[d];
    }
    return killed;
  }

 private:
  std::size_t IndexOf(const Levels& levels) const {
    std::size_t idx = 0;
    for (std::size_t d = dims_; d-- > 0;) {
      idx = idx * (dmax_ + 1) + static_cast<std::size_t>(levels[d]);
    }
    return idx;
  }

  std::size_t dims_;
  int dmax_;
  std::vector<std::uint8_t> alive_;
  std::size_t alive_count_;
};

// Interleaved S0 / S1 / zero-confidence prunes and Kills, as PAP issues
// them (plus out-of-order bounds PAP never produces): the floor-based
// Prune must match the reference odometer call by call — return value,
// alive_count and the exact on_kill sequence.
TEST(CandidateLatticeTest, PruneMatchesReferenceOdometer) {
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t dims = 1 + rng() % 4;
    const int dmax = 1 + static_cast<int>(rng() % 14);
    const int max_sum = static_cast<int>(dims) * dmax;
    CandidateLattice lat(dims, dmax);
    ReferenceLattice ref(dims, dmax);
    const Levels all_dmax(dims, dmax);
    // Qualities on the exact 1 - k/(dims*dmax) grid (where the ceiling
    // boundary sits) or arbitrary, including above 1 (S1's Vmax / C).
    auto random_quality = [&]() {
      if (rng() % 2 == 0) {
        const int k = static_cast<int>(rng() % (max_sum + 2)) - 1;
        return 1.0 - static_cast<double>(k) / max_sum;
      }
      return std::uniform_real_distribution<double>(0.0, 1.3)(rng);
    };
    auto random_levels = [&]() {
      Levels levels(dims);
      for (int& level : levels) level = static_cast<int>(rng() % (dmax + 1));
      return levels;
    };
    double s0_quality = random_quality();
    for (int step = 0; step < 40; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step);
      const unsigned op = rng() % 20;
      if (op < 5) {
        const std::size_t idx = rng() % lat.size();
        ASSERT_EQ(lat.Kill(idx), ref.Kill(idx)) << where;
        ASSERT_EQ(lat.alive_count(), ref.alive_count()) << where;
        continue;
      }
      Levels dominator;
      double quality;
      if (op < 12) {
        // S0: Vmax unchanged half the time, else a fresh bound.
        if (rng() % 2 == 0) s0_quality = random_quality();
        dominator = all_dmax;
        quality = s0_quality;
      } else if (op < 17) {
        dominator = random_levels();
        quality = random_quality();
      } else {
        dominator = random_levels();
        quality = 1.0;
      }
      std::vector<std::size_t> expected_kills;
      const std::size_t expected =
          ref.Prune(dominator, quality, &expected_kills);
      std::vector<std::size_t> kills;
      std::size_t got;
      if (rng() % 2 == 0) {
        got = lat.Prune(dominator, quality,
                        [&](std::size_t idx) { kills.push_back(idx); });
        ASSERT_EQ(kills, expected_kills) << where;
      } else {
        got = lat.Prune(dominator, quality);
      }
      ASSERT_EQ(got, expected) << where;
      ASSERT_EQ(lat.alive_count(), ref.alive_count()) << where;
    }
    for (std::size_t idx = 0; idx < lat.size(); ++idx) {
      ASSERT_EQ(lat.IsAlive(idx), ref.IsAlive(idx))
          << "seed " << seed << " cell " << idx;
    }
  }
}

}  // namespace
}  // namespace dd
