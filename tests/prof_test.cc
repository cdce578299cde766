// Correctness tests for the sampling CPU profiler (src/obs/prof):
// spin-loop sample attribution (span tag and leaf function), ring
// overflow accounting, start/stop lifecycle errors, folded-stack
// parsing/merging/diffing, and the acceptance contract that profiling
// never perturbs determination output (bit-identity at several thread
// counts, including oversubscription).

#include "obs/prof/profiler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/determiner.h"
#include "core/result_io.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "obs/prof/folded.h"
#include "obs/trace.h"
#include "test_util.h"

// ThreadSanitizer intercepts signal delivery and slows the sampled
// code by an order of magnitude; keep the lifecycle and bit-identity
// assertions strict but relax the statistical attribution bounds.
#if defined(__SANITIZE_THREAD__)
#define DD_PROF_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DD_PROF_TEST_TSAN 1
#endif
#endif
#ifndef DD_PROF_TEST_TSAN
#define DD_PROF_TEST_TSAN 0
#endif

// The profiled hot loop. extern "C" + noinline so the frame has its
// own exported symbol (-rdynamic) and dladdr names it exactly. noipa
// (GCC) stops constant propagation from cloning the body into a
// `.constprop.0` local symbol that dladdr cannot see.
#if defined(__GNUC__) && !defined(__clang__)
#define DD_PROF_TEST_OPAQUE __attribute__((noinline, noipa))
#else
#define DD_PROF_TEST_OPAQUE __attribute__((noinline))
#endif
extern "C" DD_PROF_TEST_OPAQUE std::uint64_t dd_prof_test_spin(
    std::uint64_t iters) {
  std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

namespace dd {
namespace {

using obs::prof::FoldedProfile;
using obs::prof::Profile;
using obs::prof::Profiler;
using obs::prof::ProfilerOptions;

// Opaque iteration count: a compile-time constant would invite the
// clone noipa guards against on other compilers.
volatile std::uint64_t g_spin_iters = 200000;

// Burns at least `ms` of this thread's CPU time in dd_prof_test_spin.
std::uint64_t SpinFor(int ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::uint64_t acc = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    acc ^= dd_prof_test_spin(g_spin_iters);
  }
  return acc;
}

TEST(ProfilerTest, SpinLoopSamplesAttributeToSpanAndLeaf) {
  ProfilerOptions options;
  options.hz = 997;  // Prime and fast: plenty of samples in ~300 ms.
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  {
    obs::TraceSpan span("prof_test_spin_span");
    volatile std::uint64_t sink = SpinFor(300);
    (void)sink;
  }
  const Profile profile = Profiler::Global().Stop();

  ASSERT_GT(profile.samples, 20u) << "hz=" << profile.hz;
  std::uint64_t span_hits = 0;
  std::uint64_t leaf_hits = 0;
  const FoldedProfile folded = obs::prof::FoldProfile(profile);
  for (const obs::prof::ProfileEntry& entry : profile.entries) {
    if (entry.span == "prof_test_spin_span") span_hits += entry.count;
  }
  for (const auto& [stack, count] : folded.stacks) {
#if DD_PROF_TEST_TSAN
    // TSan's interceptor frames can sit at the leaf; accept the spin
    // function anywhere in the stack.
    if (stack.find("dd_prof_test_spin") != std::string::npos)
      leaf_hits += count;
#else
    // The leaf frame (last semicolon-separated token) must be the spin
    // loop itself for the bulk of the samples.
    const std::size_t semi = stack.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? stack : stack.substr(semi + 1);
    if (leaf.find("dd_prof_test_spin") != std::string::npos)
      leaf_hits += count;
#endif
  }
  const double span_frac =
      static_cast<double>(span_hits) / static_cast<double>(profile.samples);
  const double leaf_frac =
      static_cast<double>(leaf_hits) / static_cast<double>(profile.samples);
  const double bound = DD_PROF_TEST_TSAN ? 0.5 : 0.9;
  EXPECT_GE(span_frac, bound) << "span_hits=" << span_hits
                              << " samples=" << profile.samples;
  EXPECT_GE(leaf_frac, bound) << "leaf_hits=" << leaf_hits
                              << " samples=" << profile.samples << "\n"
                              << obs::prof::FoldedToString(folded);
}

TEST(ProfilerTest, EffectiveRateBoundedByRequestedHz) {
  ProfilerOptions options;
  options.hz = 199;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  volatile std::uint64_t sink = SpinFor(400);
  (void)sink;
  const Profile profile = Profiler::Global().Stop();

  // The armed threads' CPU clocks saw the spin (loosely: a loaded
  // host may deschedule the spinning thread for part of its 400 ms).
  EXPECT_GE(profile.cpu_ns, 100000000u);
  // A CPU-time timer fires at most once per period of CPU time; allow
  // one extra expiration per armed thread as rounding.
  EXPECT_GT(profile.EffectiveHz(), 0.0);
  EXPECT_LE(profile.EffectiveHz(), options.hz * 1.15)
      << "samples=" << profile.samples << " cpu_ns=" << profile.cpu_ns;
}

TEST(ProfilerTest, FullRingDropsAndCounts) {
  ProfilerOptions options;
  options.hz = 997;
  options.ring_capacity = 16;
  // Longer than the capture: the ring is only drained at Stop(), so
  // ~300 samples must squeeze through 16 slots.
  options.drain_period_ms = 1000;
  ASSERT_TRUE(Profiler::Global().Start(options).ok());
  volatile std::uint64_t sink = SpinFor(300);
  (void)sink;
  const Profile profile = Profiler::Global().Stop();
  EXPECT_GT(profile.dropped, 0u);
  EXPECT_GT(profile.samples, 0u);  // The ring still delivered some.
}

TEST(ProfilerTest, SecondStartFailsWhileRunning) {
  ASSERT_TRUE(Profiler::Global().Start().ok());
  const Status again = Profiler::Global().Start();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition)
      << again.ToString();
  EXPECT_TRUE(Profiler::Global().active());
  Profiler::Global().Stop();
  EXPECT_FALSE(Profiler::Global().active());
}

TEST(ProfilerTest, InvalidHzRejected) {
  ProfilerOptions options;
  options.hz = 0;
  EXPECT_EQ(Profiler::Global().Start(options).code(),
            StatusCode::kInvalidArgument);
  options.hz = 100001;
  EXPECT_EQ(Profiler::Global().Start(options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(Profiler::Global().active());
}

TEST(ProfilerTest, StopWithoutStartReturnsEmptyProfile) {
  const Profile profile = Profiler::Global().Stop();
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.samples, 0u);
}

TEST(ProfilerTest, SummaryJsonIsValidAndLiveWhileRunning) {
  ASSERT_TRUE(Profiler::Global().Start().ok());
  volatile std::uint64_t sink = SpinFor(100);
  (void)sink;
  const std::string live = Profiler::Global().SummaryJson();
  EXPECT_TRUE(testutil::JsonChecker(live).Valid()) << live;
  EXPECT_NE(live.find("\"samples\":"), std::string::npos) << live;
  Profiler::Global().Stop();
  const std::string final_json = Profiler::Global().SummaryJson();
  EXPECT_TRUE(testutil::JsonChecker(final_json).Valid()) << final_json;
}

// The acceptance contract: determination output is byte-identical with
// the profiler on and off — sampling reads thread state but never
// feeds back into the computation. Covers undersubscribed, odd, and
// oversubscribed thread counts on this host.
TEST(ProfilerTest, DeterminationBitIdenticalWithProfilingOn) {
  CoraOptions gopts;
  gopts.num_entities = 24;
  const GeneratedData data = GenerateCora(gopts);
  const RuleSpec rule{{"author", "title"}, {"venue", "year"}};
  MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.max_pairs = 4000;
  auto matching =
      BuildMatchingRelation(data.relation, rule.AllAttributes(), mopts);
  ASSERT_TRUE(matching.ok()) << matching.status().ToString();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{hw}}) {
    DetermineOptions dopts;
    dopts.threads = threads;

    auto off = DetermineThresholds(*matching, rule, dopts);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    off->elapsed_seconds = 0.0;  // Wall time is the one legitimate diff.
    const std::string off_json = DetermineResultToJson(*off, rule);

    ProfilerOptions popts;
    popts.hz = 499;
    ASSERT_TRUE(Profiler::Global().Start(popts).ok());
    auto on = DetermineThresholds(*matching, rule, dopts);
    const Profile profile = Profiler::Global().Stop();
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    on->elapsed_seconds = 0.0;
    const std::string on_json = DetermineResultToJson(*on, rule);

    EXPECT_EQ(off_json, on_json) << "threads=" << threads;
    // The capture ran over the profiled determination.
    EXPECT_GT(profile.hz, 0) << "threads=" << threads;
  }
}

// ---- Folded-stack plumbing (obs/prof/folded.h) ----

TEST(FoldedTest, ParseRoundTripAndDuplicateMerge) {
  const std::string text =
      "span:a;phase:-;main;work 7\n"
      "span:a;phase:-;main;work 3\n"
      "\n"
      "span:-;phase:p;main;other 2\r\n";
  FoldedProfile folded;
  ASSERT_TRUE(obs::prof::ParseFolded(text, &folded).ok());
  ASSERT_EQ(folded.stacks.size(), 2u);
  EXPECT_EQ(folded.stacks.at("span:a;phase:-;main;work"), 10u);
  EXPECT_EQ(folded.stacks.at("span:-;phase:p;main;other"), 2u);
  EXPECT_EQ(folded.TotalSamples(), 12u);

  // Round trip: serialize and reparse to the same map.
  FoldedProfile again;
  ASSERT_TRUE(
      obs::prof::ParseFolded(obs::prof::FoldedToString(folded), &again).ok());
  EXPECT_EQ(again.stacks, folded.stacks);
}

TEST(FoldedTest, ParseRejectsMalformedLines) {
  FoldedProfile folded;
  EXPECT_FALSE(obs::prof::ParseFolded("no_count_here\n", &folded).ok());
  EXPECT_FALSE(obs::prof::ParseFolded("stack notanumber\n", &folded).ok());
}

TEST(FoldedTest, MergeSumsAcrossProfiles) {
  FoldedProfile a;
  ASSERT_TRUE(obs::prof::ParseFolded("span:-;phase:-;f;g 5\n", &a).ok());
  FoldedProfile b;
  ASSERT_TRUE(obs::prof::ParseFolded(
                  "span:-;phase:-;f;g 2\nspan:-;phase:-;f;h 1\n", &b)
                  .ok());
  const FoldedProfile merged = obs::prof::MergeFolded({a, b});
  EXPECT_EQ(merged.stacks.at("span:-;phase:-;f;g"), 7u);
  EXPECT_EQ(merged.stacks.at("span:-;phase:-;f;h"), 1u);
  EXPECT_EQ(merged.TotalSamples(), 8u);
}

TEST(FoldedTest, HotFunctionsSelfAndTotalWithRecursionDedup) {
  // g appears twice in one stack: its total must count that stack's
  // samples once, not twice.
  FoldedProfile folded;
  ASSERT_TRUE(obs::prof::ParseFolded(
                  "span:-;phase:-;f;g;g 4\n"
                  "span:-;phase:-;f;h 6\n",
                  &folded)
                  .ok());
  const std::vector<obs::prof::HotFunction> hot =
      obs::prof::HotFunctions(folded);
  ASSERT_FALSE(hot.empty());
  // Sorted by self time: h (6 self) before g (4 self); f has 0 self.
  EXPECT_EQ(hot[0].name, "h");
  EXPECT_EQ(hot[0].self, 6u);
  EXPECT_EQ(hot[0].total, 6u);
  EXPECT_EQ(hot[1].name, "g");
  EXPECT_EQ(hot[1].self, 4u);
  EXPECT_EQ(hot[1].total, 4u);  // deduped: one stack, counted once
  bool saw_f = false;
  for (const obs::prof::HotFunction& fn : hot) {
    if (fn.name == "f") {
      saw_f = true;
      EXPECT_EQ(fn.self, 0u);
      EXPECT_EQ(fn.total, 10u);
    }
  }
  EXPECT_TRUE(saw_f);
}

TEST(FoldedTest, DiffHighlightsRegressions) {
  FoldedProfile before;
  ASSERT_TRUE(obs::prof::ParseFolded("span:-;phase:-;f;g 10\n", &before).ok());
  FoldedProfile after;
  ASSERT_TRUE(obs::prof::ParseFolded(
                  "span:-;phase:-;f;g 30\nspan:-;phase:-;f;new_hot 8\n",
                  &after)
                  .ok());
  const std::string diff = obs::prof::DiffToText(before, after, 10);
  EXPECT_NE(diff.find("g"), std::string::npos) << diff;
  EXPECT_NE(diff.find("new_hot"), std::string::npos) << diff;
}

TEST(FoldedTest, SummaryJsonIsValid) {
  FoldedProfile folded;
  ASSERT_TRUE(obs::prof::ParseFolded(
                  "span:a;phase:p;main;\"work\" 3\n", &folded)
                  .ok());
  const std::string json = obs::prof::FoldedSummaryJson(folded, 5);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"samples\":3"), std::string::npos) << json;
}

}  // namespace
}  // namespace dd
