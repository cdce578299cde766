#include "core/candidate_lattice.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace dd {

const char* ProcessingOrderName(ProcessingOrder order) {
  switch (order) {
    case ProcessingOrder::kMidFirst:
      return "mid-first";
    case ProcessingOrder::kTopFirst:
      return "top-first";
    case ProcessingOrder::kBottomFirst:
      return "bottom-first";
    case ProcessingOrder::kLexicographic:
      return "lexicographic";
  }
  return "unknown";
}

namespace {

std::size_t LatticeSize(std::size_t dims, int dmax) {
  std::size_t size = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    size *= static_cast<std::size_t>(dmax) + 1;
  }
  return size;
}

}  // namespace

CandidateLattice::CandidateLattice(std::size_t dims, int dmax)
    : dims_(dims), dmax_(dmax) {
  DD_CHECK_GE(dims, 1u);
  DD_CHECK_GE(dmax, 1);
  const std::size_t size = LatticeSize(dims, dmax);
  DD_CHECK_LE(size, std::size_t{1} << 28);  // Guard runaway lattices.
  const std::size_t base = static_cast<std::size_t>(dmax) + 1;
  strides_.resize(dims);
  for (std::size_t d = 0, stride = 1; d < dims; ++d, stride *= base) {
    strides_[d] = stride;
  }
  // Level sums fit: size <= 2^28 bounds dims * dmax far below kKilled.
  const unsigned max_sum = static_cast<unsigned>(dims) * dmax;
  state_.resize(size);
  alive_by_sum_.assign(max_sum + 1, 0);
  for (std::size_t i = 0; i < size; ++i) {
    state_[i] = static_cast<std::uint16_t>(
        i == 0 ? 0 : i % base + state_[i / base]);
    ++alive_by_sum_[state_[i]];
  }
  floor_ = max_sum + 1;
  alive_count_ = size;
}

bool CandidateLattice::Kill(std::size_t idx) {
  DD_CHECK_LT(idx, state_.size());
  if (state_[idx] >= floor_) return false;
  --alive_by_sum_[state_[idx]];
  state_[idx] = kKilled;
  --alive_count_;
  return true;
}

Levels CandidateLattice::LevelsOf(std::size_t idx) const {
  Levels levels(dims_);
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  for (std::size_t d = 0; d < dims_; ++d) {
    levels[d] = static_cast<int>(idx % base);
    idx /= base;
  }
  return levels;
}

std::size_t CandidateLattice::IndexOf(const Levels& levels) const {
  DD_CHECK_EQ(levels.size(), dims_);
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t d = dims_; d-- > 0;) {
    DD_CHECK_GE(levels[d], 0);
    DD_CHECK_LE(levels[d], dmax_);
    idx = idx * base + static_cast<std::size_t>(levels[d]);
  }
  return idx;
}

std::size_t CandidateLattice::Prune(const Levels& dominator,
                                    double max_quality) {
  return Prune(dominator, max_quality, nullptr);
}

std::size_t CandidateLattice::Prune(
    const Levels& dominator, double max_quality,
    const std::function<void(std::size_t)>& on_kill) {
  DD_CHECK_EQ(dominator.size(), dims_);
  long box_sum = 0;
  bool whole_lattice = true;
  for (int level : dominator) {
    DD_CHECK_GE(level, 0);
    DD_CHECK_LE(level, dmax_);
    box_sum += level;
    whole_lattice = whole_lattice && level == dmax_;
  }
  // Q(ϕ) <= q  <=>  LevelSum(ϕ) >= dims * dmax * (1 - q).
  const double min_sum_d =
      static_cast<double>(dims_) * dmax_ * (1.0 - max_quality);
  // Guard against floating-point jitter at the boundary: Q is a ratio of
  // small integers, so nudge by an epsilon before taking the ceiling.
  const long min_sum =
      std::max(0L, static_cast<long>(std::ceil(min_sum_d - 1e-9)));
  // Cells at or above the floor are dead already; none in the box
  // reaches a sum above box_sum.
  if (min_sum >= static_cast<long>(floor_) || min_sum > box_sum) return 0;
  if (whole_lattice) {
    return LowerFloor(static_cast<unsigned>(min_sum), on_kill);
  }

  // Walk the dominated sub-box [0, dominator] row by row: an odometer
  // over dimensions 1.. tracks the row's first index and level sum, and
  // each row of dimension 0 starts where the sum reaches min_sum.
  std::size_t killed = 0;
  Levels cursor(dims_, 0);
  std::size_t row = 0;
  long row_sum = 0;
  for (;;) {
    for (long j = std::max(0L, min_sum - row_sum); j <= dominator[0]; ++j) {
      const std::size_t idx = row + static_cast<std::size_t>(j);
      const std::uint16_t sum = state_[idx];
      if (sum >= floor_) continue;  // Killed, or at/above the S0 floor.
      --alive_by_sum_[sum];
      state_[idx] = kKilled;
      ++killed;
      if (on_kill) on_kill(idx);
    }
    std::size_t d = 1;
    while (d < dims_ && cursor[d] == dominator[d]) {
      row -= static_cast<std::size_t>(cursor[d]) * strides_[d];
      row_sum -= cursor[d];
      cursor[d] = 0;
      ++d;
    }
    if (d == dims_) break;
    ++cursor[d];
    row += strides_[d];
    ++row_sum;
  }
  alive_count_ -= killed;
  return killed;
}

std::size_t CandidateLattice::LowerFloor(
    unsigned min_sum, const std::function<void(std::size_t)>& on_kill) {
  const unsigned old_floor = floor_;
  floor_ = min_sum;
  if (on_kill) {
    for (std::size_t idx = 0; idx < state_.size(); ++idx) {
      if (state_[idx] >= min_sum && state_[idx] < old_floor) on_kill(idx);
    }
  }
  std::size_t killed = 0;
  for (unsigned sum = min_sum; sum < old_floor; ++sum) {
    killed += alive_by_sum_[sum];
    alive_by_sum_[sum] = 0;
  }
  alive_count_ -= killed;
  return killed;
}

std::vector<std::uint32_t> CandidateLattice::MakeOrder(std::size_t dims,
                                                       int dmax,
                                                       ProcessingOrder order) {
  const std::size_t size = LatticeSize(dims, dmax);
  DD_CHECK_LE(size, std::size_t{1} << 28);
  std::vector<std::uint32_t> idx(size);
  std::iota(idx.begin(), idx.end(), 0u);
  if (order == ProcessingOrder::kLexicographic) return idx;

  // Level sum per cell, computed without materializing Levels.
  const std::size_t base = static_cast<std::size_t>(dmax) + 1;
  std::vector<std::uint32_t> sums(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t v = i;
    std::uint32_t s = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      s += static_cast<std::uint32_t>(v % base);
      v /= base;
    }
    sums[i] = s;
  }
  const double mid = static_cast<double>(dims) * dmax / 2.0;
  switch (order) {
    case ProcessingOrder::kMidFirst:
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return std::fabs(sums[a] - mid) <
                                std::fabs(sums[b] - mid);
                       });
      break;
    case ProcessingOrder::kTopFirst:
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return sums[a] > sums[b];
                       });
      break;
    case ProcessingOrder::kBottomFirst:
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return sums[a] < sums[b];
                       });
      break;
    case ProcessingOrder::kLexicographic:
      break;
  }
  return idx;
}

}  // namespace dd
