// Regenerates paper Table V: time cost of the mid-first vs top-first
// processing orders in C_Y, under DA+PAP and DAP+PAP, for l = 1..7 on
// Rule 1. Expected shape: mid-first wins for DA+PAP (bound starts at
// 0); top-first wins for DAP+PAP (advanced bound available); DAP+PAP
// top-first is the overall fastest.

#include <cstdio>

#include "benchmarks/bench_util.h"

int main() {
  std::printf("=== Table V: time cost (s) of processing orders in C_Y "
              "(Rule 1) ===\n");
  const std::size_t pairs = dd::bench::BenchPairs();
  std::printf("fixed |M| = %zu\n\n", pairs);
  dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(1, pairs);

  struct Config {
    const char* header;
    dd::LhsAlgorithm lhs;
    dd::ProcessingOrder order;
  };
  const Config configs[] = {
      {"mid-first DA", dd::LhsAlgorithm::kDa, dd::ProcessingOrder::kMidFirst},
      {"mid-first DAP", dd::LhsAlgorithm::kDap, dd::ProcessingOrder::kMidFirst},
      {"top-first DA", dd::LhsAlgorithm::kDa, dd::ProcessingOrder::kTopFirst},
      {"top-first DAP", dd::LhsAlgorithm::kDap, dd::ProcessingOrder::kTopFirst},
  };

  std::printf("%4s", "l");
  for (const auto& c : configs) std::printf(" %14s", c.header);
  std::printf("\n");
  for (std::size_t l = 1; l <= 7; ++l) {
    std::printf("%4zu", l);
    for (const auto& c : configs) {
      dd::DetermineOptions opts;
      opts.lhs_algorithm = c.lhs;
      opts.rhs_algorithm = dd::RhsAlgorithm::kPap;
      opts.order = c.order;
      opts.top_l = l;
      opts.provider = "scan";  // Table V times the paper's scan cost.
      auto result = dd::DetermineThresholds(w.matching, w.rule, opts);
      if (!result.ok()) return 1;
      std::printf(" %13.3fs", result->elapsed_seconds);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nexpected shape (paper): with DA the mid-first order wins; "
              "with DAP top-first wins\nand DAP+PAP top-first is the lowest "
              "overall.\n");
  return 0;
}
