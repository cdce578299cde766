#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

std::string Fmt(const char* what, std::size_t i, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "pattern %zu: %s reported %.17g, expected %.17g", i,
                what, got, want);
  return buf;
}

double Quality(const dd::Levels& rhs, int dmax) {
  double sum = 0.0;
  for (int level : rhs) sum += dmax - level;
  return sum / (static_cast<double>(rhs.size()) * dmax);
}

std::string CheckSorted(const std::vector<dd::DeterminedPattern>& patterns) {
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    if (patterns[i].utility > patterns[i - 1].utility) {
      return Fmt("utility above its predecessor's", i, patterns[i].utility,
                 patterns[i - 1].utility);
    }
  }
  return "";
}

bool Within(const dd::MatchingRelation& m, std::size_t row,
            const std::vector<std::size_t>& cols, const dd::Levels& bound) {
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (m.level(row, cols[k]) > bound[k]) return false;
  }
  return true;
}

}  // namespace

std::string CheckPatterns(const dd::MatchingRelation& m, const dd::ResolvedRule& rule,
                          const std::vector<dd::DeterminedPattern>& patterns) {
  if (patterns.empty()) return "no pattern returned";
  const std::size_t n = m.num_tuples();
  std::vector<std::uint64_t> lhs(patterns.size(), 0), xy(patterns.size(), 0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (!Within(m, row, rule.lhs, patterns[i].pattern.lhs)) continue;
      ++lhs[i];
      if (Within(m, row, rule.rhs, patterns[i].pattern.rhs)) ++xy[i];
    }
  }
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const dd::Measures& got = patterns[i].measures;
    if (got.total != n) return Fmt("|M|", i, got.total, n);
    if (got.lhs_count != lhs[i]) return Fmt("count(X)", i, got.lhs_count, lhs[i]);
    if (got.xy_count != xy[i]) return Fmt("count(XY)", i, got.xy_count, xy[i]);
    const double d = static_cast<double>(lhs[i]) / static_cast<double>(n);
    const double c =
        lhs[i] > 0 ? static_cast<double>(xy[i]) / static_cast<double>(lhs[i]) : 0.0;
    if (!Near(got.d, d)) return Fmt("D", i, got.d, d);
    if (!Near(got.confidence, c)) return Fmt("C", i, got.confidence, c);
    const double q = Quality(patterns[i].pattern.rhs, m.dmax());
    if (!Near(got.quality, q)) return Fmt("Q", i, got.quality, q);
  }
  return CheckSorted(patterns);
}

std::string CheckViolations(const dd::MatchingRelation& m, const dd::ResolvedRule& rule,
                            const dd::Pattern& pattern, const dd::PairList& got) {
  dd::PairList want;
  for (std::size_t row = 0; row < m.num_tuples(); ++row) {
    if (Within(m, row, rule.lhs, pattern.lhs) && !Within(m, row, rule.rhs, pattern.rhs)) {
      want.push_back(m.pair(row));
    }
  }
  dd::PairList sorted = got;
  std::sort(sorted.begin(), sorted.end());
  std::sort(want.begin(), want.end());
  if (sorted != want) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "violations: %zu reported, %zu by brute force",
                  got.size(), want.size());
    return buf;
  }
  return "";
}

std::string CheckSameLevelHistogram(const dd::MatchingRelation& a,
                                    const dd::MatchingRelation& b) {
  if (a.num_attributes() != b.num_attributes() || a.num_attributes() > 8) {
    return "attribute lists differ";
  }
  std::unordered_map<std::uint64_t, std::int64_t> hist;
  auto add = [&hist](const dd::MatchingRelation& m, std::int64_t sign) {
    for (std::size_t row = 0; row < m.num_tuples(); ++row) {
      std::uint64_t key = 0;
      for (std::size_t c = 0; c < m.num_attributes(); ++c) key = key << 8 | m.level(row, c);
      hist[key] += sign;
    }
  };
  add(a, 1);
  add(b, -1);
  for (const auto& [key, count] : hist) {
    if (count != 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "level histograms differ (%zu vs %zu tuples; cell %llx off by %lld)",
                    a.num_tuples(), b.num_tuples(), static_cast<unsigned long long>(key),
                    static_cast<long long>(count));
      return buf;
    }
  }
  return "";
}

std::string CheckApprox(const dd::approx::ApproxDetermineResult& r, int dmax) {
  const auto& patterns = r.determine.patterns;
  if (patterns.empty()) return "no pattern returned";
  if (r.intervals.size() != patterns.size()) return "one interval per pattern expected";
  auto inside = [](const dd::Interval& iv, double x) {
    const double slack = 1e-12 * std::max(1.0, std::fabs(x));
    return x >= iv.lo - slack && x <= iv.hi + slack;
  };
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const dd::Measures& m = patterns[i].measures;
    const dd::approx::PatternIntervals& iv = r.intervals[i];
    if (!inside(iv.lhs_count, static_cast<double>(m.lhs_count))) {
      return Fmt("count(X) outside [lo, hi]", i, m.lhs_count, iv.lhs_count.lo);
    }
    if (!inside(iv.xy_count, static_cast<double>(m.xy_count))) {
      return Fmt("count(XY) outside [lo, hi]", i, m.xy_count, iv.xy_count.lo);
    }
    if (!inside(iv.d, m.d)) return Fmt("D outside [lo, hi]", i, m.d, iv.d.lo);
    if (!inside(iv.confidence, m.confidence)) {
      return Fmt("C outside [lo, hi]", i, m.confidence, iv.confidence.lo);
    }
    if (!inside(iv.utility, patterns[i].utility)) {
      return Fmt("utility outside [lo, hi]", i, patterns[i].utility, iv.utility.lo);
    }
    const double q = Quality(patterns[i].pattern.rhs, dmax);
    if (!Near(m.quality, q)) return Fmt("Q", i, m.quality, q);
  }
  return CheckSorted(patterns);
}

}  // namespace perfbench
