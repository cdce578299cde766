// Tests for the live-telemetry exporters (src/obs/export): Prometheus
// text exposition + embedded HTTP server, Chrome trace-event JSON, and
// the FTDC-style delta sampler. Golden strings are built from
// hand-constructed snapshots so the expected exposition is exact; the
// HTTP test speaks raw sockets against an ephemeral port; the sampler
// tests assert the delta encoding is exactly invertible.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "obs/diag/flight_recorder.h"
#include "obs/export/chrome_trace.h"
#include "obs/export/http_server.h"
#include "obs/export/prometheus.h"
#include "obs/export/sampler.h"
#include "obs/metrics.h"
#include "obs/prof/folded.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace dd {
namespace {

// --------------------------------------------------------------------
// Metric-name sanitization

TEST(SanitizeMetricName, DotsBecomeUnderscores) {
  EXPECT_EQ(obs::SanitizeMetricName("provider.rows_scanned"),
            "provider_rows_scanned");
  EXPECT_EQ(obs::SanitizeMetricName("a.b.c"), "a_b_c");
}

TEST(SanitizeMetricName, LegalNamesPassThrough) {
  EXPECT_EQ(obs::SanitizeMetricName("already_legal_123"),
            "already_legal_123");
  EXPECT_EQ(obs::SanitizeMetricName("ns:subsystem_total"),
            "ns:subsystem_total");
}

TEST(SanitizeMetricName, IllegalCharactersReplaced) {
  EXPECT_EQ(obs::SanitizeMetricName("pa.evaluated_per_lhs#sum"),
            "pa_evaluated_per_lhs_sum");
  EXPECT_EQ(obs::SanitizeMetricName("weird name-with/stuff"),
            "weird_name_with_stuff");
}

TEST(SanitizeMetricName, LeadingDigitPrefixed) {
  EXPECT_EQ(obs::SanitizeMetricName("0count"), "_0count");
  EXPECT_EQ(obs::SanitizeMetricName("9.lives"), "_9_lives");
}

TEST(SanitizeMetricName, EmptyBecomesUnderscore) {
  EXPECT_EQ(obs::SanitizeMetricName(""), "_");
}

// --------------------------------------------------------------------
// Prometheus exposition

obs::MetricsSnapshot MakeSnapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"incr.batches", 7});
  snap.counters.push_back({"provider.rows_scanned", 12345});
  snap.gauges.push_back({"incr.drift", 0.25});
  obs::MetricsSnapshot::HistogramValue hist;
  hist.name = "provider.scan_ms";
  hist.bounds = {1.0, 10.0, 100.0};
  hist.buckets = {4, 3, 2, 1};  // Last bucket is overflow.
  hist.count = 10;
  hist.sum = 150.5;
  snap.histograms.push_back(hist);
  return snap;
}

TEST(Prometheus, GoldenExposition) {
  const std::string expected =
      "# TYPE incr_batches counter\n"
      "incr_batches 7\n"
      "# TYPE provider_rows_scanned counter\n"
      "provider_rows_scanned 12345\n"
      "# TYPE incr_drift gauge\n"
      "incr_drift 0.25\n"
      "# TYPE provider_scan_ms histogram\n"
      "provider_scan_ms_bucket{le=\"1\"} 4\n"
      "provider_scan_ms_bucket{le=\"10\"} 7\n"
      "provider_scan_ms_bucket{le=\"100\"} 9\n"
      "provider_scan_ms_bucket{le=\"+Inf\"} 10\n"
      "provider_scan_ms_sum 150.5\n"
      "provider_scan_ms_count 10\n";
  EXPECT_EQ(obs::MetricsSnapshotToPrometheus(MakeSnapshot()), expected);
}

TEST(Prometheus, BucketsAreCumulativeAndEndAtCount) {
  const std::string text = obs::MetricsSnapshotToPrometheus(MakeSnapshot());
  // The +Inf bucket must equal _count per the exposition format spec.
  EXPECT_NE(text.find("provider_scan_ms_bucket{le=\"+Inf\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("provider_scan_ms_count 10\n"), std::string::npos);
}

TEST(Prometheus, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(obs::MetricsSnapshotToPrometheus(obs::MetricsSnapshot{}), "");
}

// --------------------------------------------------------------------
// Histogram percentiles

TEST(HistogramPercentile, InterpolatesWithinBucket) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0, 20.0};
  hist.buckets = {10, 10, 0};
  hist.count = 20;
  // Rank 10 is exactly the end of the first bucket.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.5), 10.0);
  // Rank 15 is halfway through the second bucket (10, 20].
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 1.0), 20.0);
}

TEST(HistogramPercentile, OverflowClampsToLastBound) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0};
  hist.buckets = {1, 9};  // 9 observations above the last bound.
  hist.count = 10;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.99), 10.0);
}

TEST(HistogramPercentile, EmptyHistogramIsNaN) {
  obs::MetricsSnapshot::HistogramValue hist;
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(hist, 0.5)));
  hist.bounds = {10.0, 20.0};
  hist.buckets = {0, 0, 0};
  hist.count = 0;
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(hist, 0.5)));
}

TEST(HistogramPercentile, SingleBucketReturnsExactBound) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0, 20.0, 30.0};
  hist.buckets = {0, 7, 0, 0};
  hist.count = 7;
  // All observations share bucket (10, 20]: every percentile is its
  // upper bound, with no interpolated spread.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.01), 20.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.99), 20.0);
}

TEST(HistogramPercentile, SingleOverflowBucketClampsToLastBound) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0};
  hist.buckets = {0, 5};  // Only the overflow bucket is populated.
  hist.count = 5;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.5), 10.0);
}

// --------------------------------------------------------------------
// Chrome trace export

// The exporter renders the flight-recorder rings, so every test turns
// recording on, starts from a logically empty ring, and parses the
// complete ("X") events back out of the document.
struct ChromeSpan {
  std::string name;
  std::string cat;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  double end() const { return ts + dur; }
};

std::vector<ChromeSpan> CompleteEvents(const std::string& json) {
  static const std::regex kEvent(
      "\\{\"name\":\"([^\"]*)\",\"cat\":\"([a-z_]+)\",\"pid\":1,"
      "\"tid\":([0-9]+),\"ts\":([0-9.]+),\"ph\":\"X\",\"dur\":([0-9.]+)");
  std::vector<ChromeSpan> events;
  for (std::sregex_iterator it(json.begin(), json.end(), kEvent), last;
       it != last; ++it) {
    ChromeSpan span;
    span.name = (*it)[1];
    span.cat = (*it)[2];
    span.tid = std::stoi((*it)[3]);
    span.ts = std::stod((*it)[4]);
    span.dur = std::stod((*it)[5]);
    events.push_back(span);
  }
  return events;
}

const ChromeSpan* FindEvent(const std::vector<ChromeSpan>& events,
                            const std::string& name) {
  for (const ChromeSpan& event : events) {
    if (event.name == name) return &event;
  }
  return nullptr;
}

// Timestamps print with 1 ns resolution; allow that much rounding.
constexpr double kTsSlackUs = 0.002;

class ChromeTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::diag::FlightRecorder::Enable();
    obs::diag::FlightRecorder::Reset();
  }
  void TearDown() override { obs::diag::FlightRecorder::Disable(); }
};

TEST_F(ChromeTrace, NestedSpansNestInTimeOnOneTid) {
  {
    obs::TraceSpan outer("chrome_outer");
    {
      obs::TraceSpan inner("chrome_inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string json = obs::ChromeTraceJson();
  ASSERT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  const auto events = CompleteEvents(json);
  const ChromeSpan* outer = FindEvent(events, "chrome_outer");
  const ChromeSpan* inner = FindEvent(events, "chrome_inner");
  ASSERT_NE(outer, nullptr) << json;
  ASSERT_NE(inner, nullptr) << json;
  EXPECT_EQ(outer->cat, "span_end");
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->ts + kTsSlackUs, outer->ts);
  EXPECT_LE(inner->end(), outer->end() + kTsSlackUs);
  // Real timestamps, not a layout: the inner span slept >= 2 ms and the
  // outer one ran >= 1 ms past it.
  EXPECT_GE(inner->dur, 2000.0);
  EXPECT_GE(outer->end() - inner->end(), 1000.0);
}

TEST_F(ChromeTrace, WorkerThreadSpansGetTheirOwnTid) {
  { obs::TraceSpan span("chrome_main"); }
  std::thread worker([] { obs::TraceSpan span("chrome_worker"); });
  worker.join();
  const std::string json = obs::ChromeTraceJson();
  ASSERT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  const auto events = CompleteEvents(json);
  const ChromeSpan* main_span = FindEvent(events, "chrome_main");
  const ChromeSpan* worker_span = FindEvent(events, "chrome_worker");
  ASSERT_NE(main_span, nullptr) << json;
  ASSERT_NE(worker_span, nullptr) << json;
  EXPECT_NE(main_span->tid, worker_span->tid);
  // Both tracks are named.
  for (const int tid : {main_span->tid, worker_span->tid}) {
    EXPECT_NE(json.find("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"tid\":" + std::to_string(tid) + ","),
              std::string::npos)
        << json;
  }
}

TEST_F(ChromeTrace, PoolChunksFallInsideEnclosingParallelForSpan) {
  std::atomic<std::uint64_t> sink{0};
  {
    obs::TraceSpan span("chrome_parallel");
    ParallelFor("chrome_test.phase", 64, 4,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  std::uint64_t local = 0;
                  for (std::size_t i = begin; i < end; ++i) {
                    for (std::uint64_t k = 0; k < 20000; ++k) local += i ^ k;
                  }
                  sink += local;
                });
  }
  const std::string json = obs::ChromeTraceJson();
  ASSERT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  const auto events = CompleteEvents(json);
  const ChromeSpan* span = FindEvent(events, "chrome_parallel");
  ASSERT_NE(span, nullptr) << json;
  std::size_t chunks = 0;
  std::size_t invocations = 0;
  for (const ChromeSpan& event : events) {
    if (event.name != "chrome_test.phase") continue;
    if (event.cat == "pool_chunk") ++chunks;
    if (event.cat == "pool_invocation") ++invocations;
    EXPECT_GE(event.ts + kTsSlackUs, span->ts) << event.cat;
    EXPECT_LE(event.end(), span->end() + kTsSlackUs) << event.cat;
  }
  EXPECT_EQ(chunks, EffectiveChunks(64, 4));
  EXPECT_EQ(invocations, 1u);
}

TEST_F(ChromeTrace, LongPhaseAndSpanNamesSurvive) {
  // Both names share their first 15 characters with a sibling, so a
  // truncating copy would merge them.
  ParallelFor("matching_build.sampled", 8, 2,
              [](std::size_t, std::size_t, std::size_t) {});
  ParallelFor("matching_build.pairs", 8, 2,
              [](std::size_t, std::size_t, std::size_t) {});
  { obs::TraceSpan span("chrome_span_with_a_long_name"); }
  const std::string json = obs::ChromeTraceJson();
  ASSERT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  const auto events = CompleteEvents(json);
  EXPECT_NE(FindEvent(events, "matching_build.sampled"), nullptr) << json;
  EXPECT_NE(FindEvent(events, "matching_build.pairs"), nullptr) << json;
  EXPECT_NE(FindEvent(events, "chrome_span_with_a_long_name"), nullptr)
      << json;
}

TEST_F(ChromeTrace, DroppedEventsReported) {
  std::thread recorder([] {
    for (std::size_t i = 0; i < obs::diag::kRingCapacity + 10; ++i) {
      obs::diag::FlightRecord(obs::diag::EventType::kCustom, "chrome_flood",
                              i, 0);
    }
  });
  recorder.join();
  const std::string json = obs::ChromeTraceJson();
  ASSERT_TRUE(testutil::JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"otherData\":{\"dropped_events\":10}"),
            std::string::npos)
      << json.substr(0, 200);
  // The retained window is still exported, as thread-scoped instants.
  EXPECT_NE(json.find("\"name\":\"chrome_flood\",\"cat\":\"custom\""),
            std::string::npos);
}

TEST_F(ChromeTrace, RealTracerSnapshotIsValidJson) {
  obs::Tracer::Global().Reset();
  obs::Tracer::Global().set_enabled(true);
  {
    obs::TraceSpan outer("export_outer");
    obs::TraceSpan inner("export_inner \"quoted\"");
  }
  // Worker spans land on their own threads' tracks.
  ParallelFor(16, 4, [](std::size_t, std::size_t, std::size_t) {
    obs::TraceSpan span("export_worker");
  });
  const std::string json = obs::ChromeTraceJson();
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("export_outer"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  obs::Tracer::Global().Reset();
}

TEST_F(ChromeTrace, WriteToFile) {
  { obs::TraceSpan span("write_test"); }
  const std::string path = ::testing::TempDir() + "/chrome_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_TRUE(testutil::JsonChecker(contents).Valid()) << contents;
  EXPECT_NE(contents.find("write_test"), std::string::npos);
}

// --------------------------------------------------------------------
// HTTP server (raw-socket e2e on an ephemeral port)

std::string HttpGet(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServer, ServesMetricsAndHealthz) {
  obs::MetricsRegistry::Global()
      .GetCounter("export_test.http_counter")
      .Increment();
  auto server = obs::MetricsHttpServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  ASSERT_GT(port, 0);

  const std::string metrics =
      HttpGet(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("export_test_http_counter 1"), std::string::npos)
      << metrics;

  const std::string health =
      HttpGet(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("application/json"), std::string::npos) << health;
  // JSON body with build provenance and liveness numbers.
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"version\":\""), std::string::npos);
  EXPECT_NE(health.find("\"git_hash\":\""), std::string::npos);
  EXPECT_NE(health.find("\"git_dirty\":"), std::string::npos);
  // The stripped hash never carries the dirty marker; the flag does.
  EXPECT_EQ(health.find("+dirty"), std::string::npos) << health;
  EXPECT_NE(health.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(health.find("\"live_tuples\":"), std::string::npos);
  EXPECT_NE(health.find("\"matching_tuples\":"), std::string::npos);
  const std::size_t body_start = health.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos);
  EXPECT_TRUE(testutil::JsonChecker(health.substr(body_start + 4)).Valid())
      << health;

  const std::string missing =
      HttpGet(port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  const std::string post =
      HttpGet(port, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  EXPECT_EQ((*server)->requests_served(), 4u);
  (*server)->Stop();
  (*server)->Stop();  // Idempotent.
}

TEST(MetricsHttpServer, ServesWhileMetricsAreWritten) {
  auto server = obs::MetricsHttpServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  // Hammer the registry from a worker thread while scraping: the scrape
  // must always see a consistent exposition, never crash or hang. The
  // handles are registered up front so the name exists from scrape one.
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.hammered");
  obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "export_test.hammered_ms", obs::DefaultLatencyBoundsMs());
  std::atomic<bool> done{false};
  std::thread writer([&done, &counter, &hist] {
    std::uint64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      counter.Increment();
      hist.Observe(static_cast<double>(i % 500));
      ++i;
    }
  });
  for (int scrape = 0; scrape < 10; ++scrape) {
    const std::string response =
        HttpGet(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("export_test_hammered"), std::string::npos);
  }
  done.store(true);
  writer.join();
}

// /debug/prof runs a live capture while the process is busy (a writer
// thread plus pooled ParallelFor work, as `ddtool serve` would be
// during ingestion) and must come back with parseable folded lines.
// Also covered by the TSan CI job.
TEST(MetricsHttpServer, DebugProfCapturesUnderLoad) {
  auto server = obs::MetricsHttpServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  std::atomic<bool> done{false};
  std::thread ingester([&done] {
    std::atomic<std::uint64_t> sink{0};
    while (!done.load(std::memory_order_relaxed)) {
      ParallelFor("export_test.ingest", 256, 2,
                  [&sink](std::size_t, std::size_t begin, std::size_t end) {
                    std::uint64_t acc = 0;
                    for (std::size_t i = begin; i < end; ++i) {
                      acc += i * i + (acc >> 3);
                    }
                    sink.fetch_add(acc, std::memory_order_relaxed);
                  });
    }
  });

  const std::string response = HttpGet(
      port, "GET /debug/prof?seconds=1&hz=251 HTTP/1.1\r\nHost: t\r\n\r\n");
  done.store(true);
  ingester.join();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  const std::size_t body_start = response.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos);
  const std::string body = response.substr(body_start + 4);
  // A 1 s busy capture at 251 Hz cannot come back empty, and every
  // line must parse as "<stack> <count>" with the span:/phase: roots.
  obs::prof::FoldedProfile folded;
  ASSERT_TRUE(obs::prof::ParseFolded(body, &folded).ok()) << body;
  EXPECT_FALSE(folded.empty()) << body;
  for (const auto& [key, hits] : folded.stacks) {
    EXPECT_EQ(key.rfind("span:", 0), 0u) << key;
    EXPECT_NE(key.find(";phase:"), std::string::npos) << key;
    EXPECT_GT(hits, 0u);
  }
  // Bad parameters clamp rather than fail; a second capture can start
  // right after the first finished.
  const std::string clamped = HttpGet(
      port, "GET /debug/prof?seconds=0&hz=-3 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(clamped.find("HTTP/1.1 200 OK"), std::string::npos) << clamped;
}

// --------------------------------------------------------------------
// FTDC-style sampler

TEST(Sampler, FlattenSnapshotIsCanonical) {
  const obs::SampleView view = obs::FlattenSnapshot(MakeSnapshot());
  // 2 counters + 4 buckets + 1 histogram count.
  ASSERT_EQ(view.counters.size(), 7u);
  // 1 gauge + 1 histogram sum.
  ASSERT_EQ(view.gauges.size(), 2u);
  for (std::size_t i = 1; i < view.counters.size(); ++i) {
    EXPECT_LT(view.counters[i - 1].first, view.counters[i].first);
  }
  for (std::size_t i = 1; i < view.gauges.size(); ++i) {
    EXPECT_LT(view.gauges[i - 1].first, view.gauges[i].first);
  }
}

TEST(Sampler, DeltaFramesReconstructExactly) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;  // Tick manually.
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.sampled");
  obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("export_test.sampled_gauge");
  counter.Increment();
  (*sampler)->SampleOnce();  // Full (new schema).
  counter.Increment();
  gauge.Set(1.5);
  (*sampler)->SampleOnce();  // Delta.
  counter.Increment();
  (*sampler)->SampleOnce();  // Delta.

  const std::vector<obs::SampleFrame> ring = (*sampler)->Ring();
  ASSERT_GE(ring.size(), 3u);
  EXPECT_TRUE(ring.front().full);
  EXPECT_FALSE(ring.back().full);

  auto decoded = obs::DecodeFrames(ring);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const obs::SampleView live =
      obs::FlattenSnapshot(obs::MetricsRegistry::Global().Snapshot());
  ASSERT_EQ(decoded->counters.size(), live.counters.size());
  for (std::size_t i = 0; i < live.counters.size(); ++i) {
    EXPECT_EQ(decoded->counters[i].first, live.counters[i].first);
    EXPECT_EQ(decoded->counters[i].second, live.counters[i].second)
        << live.counters[i].first;
  }
  ASSERT_EQ(decoded->gauges.size(), live.gauges.size());
  for (std::size_t i = 0; i < live.gauges.size(); ++i) {
    EXPECT_EQ(decoded->gauges[i].first, live.gauges[i].first);
    EXPECT_DOUBLE_EQ(decoded->gauges[i].second, live.gauges[i].second)
        << live.gauges[i].first;
  }
  (*sampler)->Stop();
}

TEST(Sampler, DeltaFramesAreSparse) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.sparse");
  (*sampler)->SampleOnce();  // Full (schema gained the new counter).
  counter.Increment();
  counter.Increment();
  (*sampler)->SampleOnce();  // Delta: only this counter moved.

  const std::vector<obs::SampleFrame> ring = (*sampler)->Ring();
  const obs::SampleFrame& last = ring.back();
  ASSERT_FALSE(last.full);
  ASSERT_EQ(last.counter_deltas.size(), 1u);
  EXPECT_EQ(last.counter_deltas[0].second, 2);
  // Every tick refreshes the process RSS and lifetime gauges
  // (DESIGN.md §13), so a delta frame may legitimately carry mem.rss_*
  // movement when the process footprint shifts between samples and
  // process.* movement as uptime advances; nothing else may appear.
  ASSERT_GE(ring.size(), 2u);
  const obs::SampleFrame& reference = ring[ring.size() - 2];
  ASSERT_TRUE(reference.full);
  for (const auto& [index, value] : last.gauge_values) {
    ASSERT_LT(index, reference.view.gauges.size());
    const std::string& name = reference.view.gauges[index].first;
    EXPECT_TRUE(name.rfind("mem.rss", 0) == 0 ||
                name.rfind("process.", 0) == 0)
        << "unexpected gauge delta: " << name << " = " << value;
  }
  (*sampler)->Stop();
}

TEST(Sampler, SchemaChangeForcesFullFrame) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  (*sampler)->SampleOnce();
  // Registering a brand-new metric changes the flattened schema; the
  // next frame must be a full reference frame, not a delta.
  obs::MetricsRegistry::Global()
      .GetCounter("export_test.schema_change_unique")
      .Increment();
  (*sampler)->SampleOnce();
  EXPECT_TRUE((*sampler)->Ring().back().full);
  (*sampler)->Stop();
}

TEST(Sampler, RingStaysBoundedAndDecodable) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;
  options.ring_capacity = 8;
  options.full_every = 4;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.ring");
  for (int i = 0; i < 50; ++i) {
    counter.Increment();
    (*sampler)->SampleOnce();
  }
  const std::vector<obs::SampleFrame> ring = (*sampler)->Ring();
  EXPECT_LE(ring.size(), 8u);
  ASSERT_FALSE(ring.empty());
  EXPECT_TRUE(ring.front().full);
  auto decoded = obs::DecodeFrames(ring);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const obs::SampleView live =
      obs::FlattenSnapshot(obs::MetricsRegistry::Global().Snapshot());
  EXPECT_EQ(decoded->counters, live.counters);
  (*sampler)->Stop();
}

TEST(Sampler, DecodeRejectsLeadingDelta) {
  obs::SampleFrame delta;
  delta.full = false;
  EXPECT_FALSE(obs::DecodeFrames({delta}).ok());
}

TEST(Sampler, JsonlFramesAreValidAndStamped) {
  const std::string path = ::testing::TempDir() + "/sampler_test.jsonl";
  std::remove(path.c_str());
  {
    obs::SamplerOptions options;
    options.period_ms = 1000000;
    options.series_path = path;
    options.run_id = "test-run \"quoted\"";
    auto sampler = obs::MetricsSampler::Start(options);
    ASSERT_TRUE(sampler.ok());
    obs::MetricsRegistry::Global()
        .GetCounter("export_test.jsonl")
        .Increment();
    (*sampler)->SampleOnce();
    (*sampler)->Stop();
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < contents.size()) {
    const std::size_t end = contents.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(contents.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_GE(lines.size(), 2u);  // Initial full frame + manual sample.
  for (const std::string& line : lines) {
    EXPECT_TRUE(testutil::JsonChecker(line).Valid()) << line;
    EXPECT_NE(line.find("\"run_id\":\"test-run \\\"quoted\\\"\""),
              std::string::npos)
        << line;
  }
  EXPECT_NE(lines[0].find("\"type\":\"full\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
}

// The TSan target: sampler + HTTP server live while many threads write
// metrics. Run under -fsanitize=thread this exercises every
// reader/writer pairing in the export layer.
TEST(Sampler, ConcurrentWithServerAndWriters) {
  obs::SamplerOptions options;
  options.period_ms = 1;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());
  auto server = obs::MetricsHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  ParallelFor(8, 8, [](std::size_t chunk, std::size_t, std::size_t) {
    obs::Counter& counter =
        obs::MetricsRegistry::Global().GetCounter("export_test.concurrent");
    obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
        "export_test.concurrent_ms", obs::DefaultLatencyBoundsMs());
    for (int i = 0; i < 2000; ++i) {
      counter.Increment();
      hist.Observe(static_cast<double>((chunk * 7 + i) % 900));
    }
  });
  const std::string response =
      HttpGet(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(response.find("export_test_concurrent"), std::string::npos);
  (*server)->Stop();
  (*sampler)->Stop();
  auto decoded = obs::DecodeFrames((*sampler)->Ring());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
}

}  // namespace
}  // namespace dd
