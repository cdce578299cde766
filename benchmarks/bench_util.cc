#include "benchmarks/bench_util.h"

#include <cmath>
#include <cstdlib>

#include "common/flags.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd::bench {

namespace {

double ScaleFactor() {
  const char* env = std::getenv("DD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

// Entities sized so the generated relation comfortably yields the
// requested number of pairs: N(N-1)/2 >= max_pairs needs N ~ sqrt(2P).
std::size_t EntitiesForPairs(std::size_t max_pairs, double rows_per_entity) {
  double rows_needed = 1.0 + std::sqrt(2.0 * static_cast<double>(max_pairs));
  std::size_t entities =
      static_cast<std::size_t>(rows_needed / rows_per_entity) + 2;
  return entities;
}

}  // namespace

std::size_t Scaled(std::size_t size) {
  return static_cast<std::size_t>(static_cast<double>(size) * ScaleFactor());
}

std::size_t BenchPairs(std::size_t fallback) {
  const char* env = std::getenv("DD_BENCH_PAIRS");
  std::size_t base = fallback;
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) base = static_cast<std::size_t>(v);
  }
  return Scaled(base);
}

void ApplyThreadsArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      const long v = std::atol(argv[i + 1]);
      if (v > 0) SetDefaultThreads(static_cast<std::size_t>(v));
      return;
    }
  }
}

std::vector<std::size_t> ThreadSweep(std::vector<std::size_t> fallback) {
  const char* env = std::getenv("DD_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    std::vector<std::size_t> sweep;
    for (const std::string& token : SplitFlagList(env)) {
      const long v = std::atol(token.c_str());
      if (v > 0) sweep.push_back(static_cast<std::size_t>(v));
    }
    if (!sweep.empty()) return sweep;
  }
  return fallback;
}

std::vector<std::size_t> ScalabilitySizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t base : {20000u, 40000u, 60000u, 80000u, 100000u}) {
    sizes.push_back(Scaled(base));
  }
  return sizes;
}

RuleWorkload MakeRuleWorkload(int rule_number, std::size_t max_pairs) {
  MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.max_pairs = max_pairs;
  mopts.seed = 1;

  switch (rule_number) {
    case 1: {
      CoraOptions gopts;
      gopts.num_entities = EntitiesForPairs(max_pairs, 3.5);
      GeneratedData data = GenerateCora(gopts);
      RuleSpec rule{{"author", "title"}, {"venue", "year"}};
      // The paper preprocesses with edit distance over q-grams; this
      // matters for short fields like year, where plain character edit
      // distance cannot separate distinct values.
      MatchingOptions rule_opts = mopts;
      rule_opts.metric_overrides["year"] = "qgram2";
      auto m = BuildMatchingRelation(data.relation, rule.AllAttributes(),
                                     rule_opts);
      DD_CHECK(m.ok());
      return {kRules[0].label, rule, std::move(m).value()};
    }
    case 2: {
      CoraOptions gopts;
      gopts.num_entities = EntitiesForPairs(max_pairs, 3.5);
      GeneratedData data = GenerateCora(gopts);
      RuleSpec rule{{"venue"}, {"address", "publisher", "editor"}};
      auto m = BuildMatchingRelation(data.relation, rule.AllAttributes(),
                                     mopts);
      DD_CHECK(m.ok());
      return {kRules[1].label, rule, std::move(m).value()};
    }
    case 3: {
      RestaurantOptions gopts;
      gopts.num_entities = EntitiesForPairs(max_pairs, 3.0);
      GeneratedData data = GenerateRestaurant(gopts);
      RuleSpec rule{{"name", "address"}, {"city", "type"}};
      auto m = BuildMatchingRelation(data.relation, rule.AllAttributes(),
                                     mopts);
      DD_CHECK(m.ok());
      return {kRules[2].label, rule, std::move(m).value()};
    }
    case 4: {
      CiteseerOptions gopts;
      gopts.num_entities = EntitiesForPairs(max_pairs, 3.5);
      GeneratedData data = GenerateCiteseer(gopts);
      RuleSpec rule{{"address", "affiliation", "description"}, {"subject"}};
      auto m = BuildMatchingRelation(data.relation, rule.AllAttributes(),
                                     mopts);
      DD_CHECK(m.ok());
      return {kRules[3].label, rule, std::move(m).value()};
    }
    default:
      DD_CHECK(false);
  }
  __builtin_unreachable();
}

void ResetPhaseTimings() {
  obs::Tracer::Global().Reset();
  obs::MetricsRegistry::Global().ResetAll();
}

std::string PhaseTimingsJson() {
  const obs::TraceSnapshot snap = obs::Tracer::Global().Snapshot();
  const obs::SpanStats* determine = snap.Find("determine");
  std::string out = "{";
  if (determine != nullptr) {
    out += StrFormat("\"total_s\": %.6f", determine->total_seconds);
    for (const obs::SpanStats& child : determine->children) {
      out += StrFormat(", \"%s_s\": %.6f", child.name.c_str(),
                       child.total_seconds);
    }
  }
  out += "}";
  return out;
}

std::string HistogramPercentilesJson() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  std::string out = "{";
  bool first = true;
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += h.name;
    out += StrFormat("\": {\"count\": %llu, \"p50\": %.4f, \"p95\": %.4f, "
                     "\"p99\": %.4f}",
                     static_cast<unsigned long long>(h.count),
                     obs::HistogramPercentile(h, 0.50),
                     obs::HistogramPercentile(h, 0.95),
                     obs::HistogramPercentile(h, 0.99));
  }
  out += "}";
  return out;
}

DetermineOptions ApproachOptions(const std::string& approach,
                                 std::size_t top_l) {
  DetermineOptions opts;
  opts.top_l = top_l;
  // The paper's cost model: every count is an O(M) scan, which is what
  // the figure and micro harnesses measure (the library default "auto"
  // would answer from a grid).
  opts.provider = "scan";
  if (approach == "DA+PA") {
    opts.lhs_algorithm = LhsAlgorithm::kDa;
    opts.rhs_algorithm = RhsAlgorithm::kPa;
    opts.order = ProcessingOrder::kMidFirst;
  } else if (approach == "DA+PAP") {
    opts.lhs_algorithm = LhsAlgorithm::kDa;
    opts.rhs_algorithm = RhsAlgorithm::kPap;
    opts.order = ProcessingOrder::kMidFirst;  // Paper: mid-first for DA.
  } else if (approach == "DAP+PAP") {
    opts.lhs_algorithm = LhsAlgorithm::kDap;
    opts.rhs_algorithm = RhsAlgorithm::kPap;
    opts.order = ProcessingOrder::kTopFirst;  // Paper: top-first for DAP.
  } else {
    DD_CHECK(false);
  }
  return opts;
}

}  // namespace dd::bench
