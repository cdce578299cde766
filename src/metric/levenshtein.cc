#include "metric/levenshtein.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "metric/metric.h"

namespace dd {

namespace lev {

std::size_t ReferenceDp(std::string_view a, std::string_view b) {
  if (a == b) return 0;
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  // Keep the shorter string as the row to bound memory by
  // min(|a|, |b|) + 1.
  if (a.size() < b.size()) std::swap(a, b);
  std::vector<std::uint32_t> prev(b.size() + 1);
  std::vector<std::uint32_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    prev[j] = static_cast<std::uint32_t>(j);
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::uint32_t sub = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

void Pattern::Assign(std::string_view pattern) {
  for (std::size_t i = 0; i < size_; ++i) {
    peq_[static_cast<unsigned char>(chars_[i])] = 0;
  }
  size_ = pattern.size();
  for (std::size_t i = 0; i < size_; ++i) {
    chars_[i] = pattern[i];
    peq_[static_cast<unsigned char>(pattern[i])] |= std::uint64_t{1} << i;
  }
}

std::size_t Myers64(const Pattern& pattern, std::string_view text,
                    std::size_t cap) {
  const std::size_t m = pattern.size();
  const std::size_t n = text.size();
  if (m == 0) return n <= cap ? n : cap + 1;
  // The final distance is at least score - (n - 1 - j) after text
  // character j, so stop once score + j exceeds cap + n - 1.
  const std::size_t limit = cap >= kNoCap - n ? kNoCap : cap + n - 1;
  std::uint64_t vp =
      m == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << m) - 1;
  std::uint64_t vn = 0;
  const std::size_t last = m - 1;
  std::size_t score = m;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t eq = pattern.Mask(text[j]);
    const std::uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    std::uint64_t hp = vn | ~(d0 | vp);
    std::uint64_t hn = d0 & vp;
    // Branch-free: the last row's horizontal delta is +1, -1 or 0.
    score += (hp >> last) & 1;
    score -= (hn >> last) & 1;
    if (score + j > limit) return cap + 1;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = d0 & hp;
  }
  return score <= cap ? score : cap + 1;
}

std::size_t Myers64(std::string_view a, std::string_view b, std::size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  thread_local Pattern pattern;
  pattern.Assign(a);
  return Myers64(pattern, b, cap);
}

std::size_t Banded(std::string_view a, std::string_view b, std::size_t cap) {
  if (a == b) return 0;
  if (a.size() < b.size()) std::swap(a, b);
  // Length difference is a lower bound on the edit distance.
  if (a.size() - b.size() > cap) return cap + 1;
  if (b.empty()) return a.size();

  // Banded DP: only cells with |i - j| <= cap can be <= cap.
  constexpr std::uint32_t kBig = std::numeric_limits<std::uint32_t>::max() / 2;
  std::vector<std::uint32_t> prev(b.size() + 1, kBig);
  std::vector<std::uint32_t> cur(b.size() + 1, kBig);
  for (std::size_t j = 0; j <= std::min(b.size(), cap); ++j) {
    prev[j] = static_cast<std::uint32_t>(j);
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    const std::size_t lo = (i > cap) ? i - cap : 1;
    const std::size_t hi = std::min(b.size(), i + cap);
    if (lo > hi) return cap + 1;
    std::fill(cur.begin(), cur.end(), kBig);
    if (lo == 1) cur[0] = static_cast<std::uint32_t>(i);
    std::uint32_t row_min = cur[0];
    for (std::size_t j = lo; j <= hi; ++j) {
      const std::uint32_t sub = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      std::uint32_t best = sub;
      if (prev[j] + 1 < best) best = prev[j] + 1;
      if (cur[j - 1] + 1 < best) best = cur[j - 1] + 1;
      cur[j] = best;
      row_min = std::min(row_min, best);
    }
    if (row_min > cap) return cap + 1;  // Whole band exceeded the cap.
    std::swap(prev, cur);
  }
  const std::uint32_t d = prev[b.size()];
  return d > cap ? cap + 1 : static_cast<std::size_t>(d);
}

int CharBin(unsigned char c) {
  if (c >= 'a' && c <= 'z') return c - 'a';
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= '0' && c <= '9') return 26 + (c - '0');
  return 36 + c % 28;
}

CharHistogram Histogram(std::string_view s) {
  CharHistogram h{};
  for (const char c : s) {
    std::uint8_t& bin = h[CharBin(static_cast<unsigned char>(c))];
    if (bin < 255) ++bin;
  }
  return h;
}

std::size_t BagDistance(const CharHistogram& a, const CharHistogram& b) {
  // Saturation, like folding, only shrinks per-bin differences. With
  // L1 = |A \ B| + |B \ A| and |A| - |B| = |A \ B| - |B \ A|, the
  // larger side is (L1 + ||A| - |B||) / 2 — sums of absolute byte
  // differences, which compile to psadbw.
  int l1 = 0;
  int size_diff = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    l1 += std::abs(a[k] - b[k]);
    size_diff += a[k] - b[k];
  }
  return static_cast<std::size_t>((l1 + std::abs(size_diff)) / 2);
}

}  // namespace lev

double LevenshteinMetric::Distance(std::string_view a,
                                   std::string_view b) const {
  if (a == b) return 0.0;
  if (std::min(a.size(), b.size()) <= 64) {
    return static_cast<double>(lev::Myers64(a, b));
  }
  return static_cast<double>(lev::ReferenceDp(a, b));
}

double LevenshteinMetric::BoundedDistance(std::string_view a,
                                          std::string_view b,
                                          double cap) const {
  if (cap < 0.0) cap = 0.0;
  if (a == b) return 0.0;
  const std::size_t max_len = std::max(a.size(), b.size());
  // A cap at or above the longer length can never be exceeded — and the
  // double -> size_t conversion below would be unsafe for huge or NaN
  // caps. A NaN cap means no cap.
  if (std::isnan(cap) || cap >= static_cast<double>(max_len)) {
    return Distance(a, b);
  }
  const auto capped = static_cast<std::size_t>(cap);  // floor: d <= floor(cap) <=> d <= cap
  const std::size_t min_len = std::min(a.size(), b.size());
  if (max_len - min_len > capped) return cap + 1.0;
  const std::size_t d = min_len <= 64 ? lev::Myers64(a, b, capped)
                                      : lev::Banded(a, b, capped);
  return d > capped ? cap + 1.0 : static_cast<double>(d);
}

namespace {

// One-to-many rows: each row value's Myers pattern is built once per
// Row call, and the length difference and the 64-bin bag distance
// reject most pairs before any kernel runs.
class LevenshteinRows : public OneToManyDistances {
 public:
  LevenshteinRows(const LevenshteinMetric& metric,
                  const std::vector<const std::string*>& values, double cap)
      : metric_(metric),
        values_(values),
        cap_(cap < 0.0 ? 0.0 : cap),
        // No cap (NaN, or too large to matter) leaves every bound inert.
        capped_(std::isnan(cap_) || cap_ >= 1e18
                    ? lev::kNoCap
                    : static_cast<std::size_t>(cap_)) {
    histograms_.reserve(values.size());
    for (const std::string* v : values) histograms_.push_back(lev::Histogram(*v));
  }

  void Row(std::uint32_t i, const std::uint32_t* js, std::size_t count,
           double* out) const override {
    const std::string& a = *values_[i];
    const lev::CharHistogram& a_histogram = histograms_[i];
    // Reassigning clears only the slots the previous row set, so each
    // thread zero-fills its 2 KB of masks once, not once per row.
    thread_local lev::Pattern pattern;
    if (a.size() <= 64) pattern.Assign(a);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t j = js[k];
      const std::string& b = *values_[j];
      const std::size_t len_diff =
          a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
      if (len_diff > capped_ ||
          lev::BagDistance(a_histogram, histograms_[j]) > capped_) {
        out[k] = cap_ + 1.0;
      } else if (a.size() > 64) {
        // Patterns longer than a word: the per-pair path (the band, or
        // Myers with the shorter side as the pattern).
        out[k] = metric_.BoundedDistance(a, b, cap_);
      } else {
        const std::size_t d = lev::Myers64(pattern, b, capped_);
        out[k] = d > capped_ ? cap_ + 1.0 : static_cast<double>(d);
      }
    }
  }

  std::size_t MemoryUsageBytes() const override {
    return histograms_.capacity() * sizeof(lev::CharHistogram);
  }

 private:
  const LevenshteinMetric& metric_;
  const std::vector<const std::string*>& values_;
  double cap_;
  std::size_t capped_;
  std::vector<lev::CharHistogram> histograms_;
};

}  // namespace

std::unique_ptr<OneToManyDistances> LevenshteinMetric::OneToMany(
    const std::vector<const std::string*>& values, double cap) const {
  return std::make_unique<LevenshteinRows>(*this, values, cap);
}

}  // namespace dd
