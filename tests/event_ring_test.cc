// Concurrency regression test for the one per-thread event ring (the
// flight recorder, src/obs/diag/flight_recorder.h): while one thread
// keeps recording spans, pool chunks and instants, another reads the
// rings through every consumer — the ring snapshot, the pool-stats
// aggregation and a live dump. Built with -fsanitize=thread (the CI
// tsan job, DD_THREADS=4), any unsynchronized slot access is reported
// as a data race; in every build the readers must only see whole
// events, never a slot torn by a concurrent overwrite.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/diag/crash_dump.h"
#include "obs/diag/dump_reader.h"
#include "obs/diag/flight_recorder.h"
#include "obs/pool_stats.h"
#include "obs/trace.h"

namespace dd::obs {
namespace {

using diag::EventType;

TEST(EventRingTest, ReadersRaceRecordingThreadCleanly) {
  diag::DiagOptions options;
  options.start_watchdog = false;
  options.install_signal_handlers = false;
  ASSERT_TRUE(diag::EnableDiagnostics(options));  // Turns recording on.
  diag::FlightRecorder::Reset();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rounds{0};
  std::thread writer([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      TraceSpan span("ring_test.span");
      diag::FlightRecord(EventType::kBatch, "ring_test.batch", i, i + 1);
      ParallelFor("ring_test.phase", 32, 2,
                  [](std::size_t, std::size_t, std::size_t) {});
      rounds.store(i + 1, std::memory_order_release);
    }
  });
  // Let the writer wrap its ring at least once so readers meet slots
  // being overwritten, not just freshly appended ones.
  while (rounds.load(std::memory_order_acquire) < diag::kRingCapacity / 4) {
    std::this_thread::yield();
  }

  for (int read = 0; read < 10; ++read) {
    for (const auto& thread : diag::FlightRecorder::Snapshot()) {
      for (const diag::FlightEvent& event : thread.events) {
        if (event.type != EventType::kBatch) continue;
        EXPECT_STREQ(event.name, "ring_test.batch");
        EXPECT_EQ(event.arg1, event.arg0 + 1) << "torn slot";
      }
    }

    const PoolStatsSnapshot pool = PoolStatsCollector::Global().Snapshot();
    for (const PoolChunkRecord& chunk : pool.timeline) {
      EXPECT_EQ(chunk.phase, "ring_test.phase");
      EXPECT_LE(chunk.begin, chunk.end);
      EXPECT_LE(chunk.end, 32u);
      EXPECT_LE(chunk.start_ns, chunk.end_ns);
    }

    diag::DiagDump dump;
    std::string error;
    ASSERT_TRUE(diag::ParseDiagDump(diag::CaptureLiveDump("live"), &dump,
                                    &error))
        << error;
    EXPECT_TRUE(dump.complete);
    bool saw_batch = false;
    for (const diag::DiagFlightEvent& event : dump.flight_events) {
      if (event.type != "batch") continue;
      saw_batch = true;
      EXPECT_EQ(event.name, "ring_test.batch");
      EXPECT_EQ(event.arg1, event.arg0 + 1) << "torn slot";
    }
    EXPECT_TRUE(saw_batch);
  }

  stop.store(true, std::memory_order_relaxed);
  writer.join();
  diag::DisableDiagnostics();
}

}  // namespace
}  // namespace dd::obs
