// Observability-endpoint suite (ctest label `obs`; docs/observability.md):
// the StatusServer HTTP introspection endpoint and the anomaly-triggered
// FlightRecorder.
//
//   - StatusServer: a raw loopback TCP client GETs registered paths and
//     checks status line, Content-Type and body; unknown paths 404 (listing
//     the registry), non-GET methods 405; requests_served() counts them all.
//   - SynthesizeCaptureFromLifecycles: a clean lifecycle window synthesizes
//     a capture that passes the offline analyzer end to end (the same
//     `concord_trace --check` gate), including the anatomy identity on every
//     complete request; preempted lifecycles truncate with their missing
//     records declared in buffer_dropped; a corrupted stamp chain is caught
//     by the analyzer's anatomy identity check.
//   - FlightRecorder live, subscribed to a MetricsSampler: an injected
//     deadline-miss burst (every request submitted with an already-expired
//     deadline) must fire the trigger and dump a valid concord.trace.v1
//     file; DumpNow() honors the max_dumps budget; StatusJson() reports
//     armed state and trigger counts; the sampler's final flush at Stop()
//     reaches the recorder, so a run shorter than one window dumps whole.
//
// Like the runtime suites these verify behaviour, not timing; the
// polling-dependent cases wait on the recorder's own counters with a
// generous deadline instead of sleeping a fixed interval.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/status_server.h"
#include "src/runtime/instrument.h"
#include "src/runtime/runtime.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/analyzer.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/metrics_sampler.h"

namespace concord {
namespace {

using telemetry::RequestLifecycle;

// One blocking HTTP exchange against 127.0.0.1:port; returns the full
// response (headers + body), empty on connect/send failure.
std::string HttpExchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return std::string();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::string();
  }
  if (::send(fd, request.data(), request.size(), 0) < 0) {
    ::close(fd);
    return std::string();
  }
  std::string response;
  char buffer[4096];
  // Connection: close — read until EOF. concord-lint: allow-no-probe (test client)
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
  return HttpExchange(port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

TEST(StatusServerTest, ServesRegisteredPathsOnEphemeralPort) {
  obs::StatusServer::Options options;  // port 0: ephemeral
  obs::StatusServer server(options);
  server.Handle("/statusz", "text/plain; charset=utf-8", [] { return "status body here"; });
  server.Handle("/metricsz", "text/plain; version=0.0.4",
                [] { return "concord_requests_completed_total 7\n"; });
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0) << "ephemeral port must be resolved after Start()";

  const std::string statusz = HttpGet(server.port(), "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("Content-Type: text/plain; charset=utf-8"), std::string::npos);
  EXPECT_NE(statusz.find("status body here"), std::string::npos);

  const std::string metricsz = HttpGet(server.port(), "/metricsz");
  EXPECT_NE(metricsz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metricsz.find("concord_requests_completed_total 7"), std::string::npos);

  // Query strings are stripped before route lookup (curl '?x=y' works).
  const std::string with_query = HttpGet(server.port(), "/statusz?verbose=1");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);

  EXPECT_GE(server.requests_served(), 3u);
  server.Stop();
}

TEST(StatusServerTest, UnknownPathListsRegistryAndNonGetIsRejected) {
  obs::StatusServer server(obs::StatusServer::Options{});
  server.Handle("/statusz", "text/plain", [] { return "ok"; });
  ASSERT_TRUE(server.Start());

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos) << missing;
  EXPECT_NE(missing.find("/statusz"), std::string::npos)
      << "404 body must list the registered paths";

  const std::string post =
      HttpExchange(server.port(), "POST /statusz HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos) << post;
  server.Stop();
}

TEST(StatusServerTest, StopIsIdempotentAndRestartFails) {
  obs::StatusServer server(obs::StatusServer::Options{});
  server.Handle("/x", "text/plain", [] { return "x"; });
  ASSERT_TRUE(server.Start());
  const std::uint16_t port = server.port();
  server.Stop();
  server.Stop();  // idempotent
  // The socket is closed: a fresh connection must fail or reset.
  EXPECT_EQ(HttpGet(port, "/x").find("HTTP/1.1 200 OK"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight-dump synthesis
// ---------------------------------------------------------------------------

RequestLifecycle MakeLifecycle(std::uint64_t id, std::uint64_t base, std::int32_t worker) {
  RequestLifecycle lifecycle;
  lifecycle.id = id;
  lifecycle.request_class = static_cast<std::int32_t>(id % 2);
  lifecycle.first_worker = worker;
  lifecycle.completion_worker = worker;
  lifecycle.arrival_tsc = base;
  lifecycle.adopt_tsc = base + 100;
  lifecycle.dispatch_tsc = base + 250;
  lifecycle.first_run_tsc = base + 400;
  lifecycle.finish_tsc = base + 1400;
  lifecycle.service_tsc = 1000;
  lifecycle.complete_tsc = base + 1500;
  return lifecycle;
}

trace::TraceCapture SynthesisMeta() {
  trace::TraceCapture meta;
  meta.tsc_ghz = 2.0;
  meta.worker_count = 2;
  meta.jbsq_depth = 2;
  meta.quantum_us = 50.0;
  meta.policy = "concord-jbsq";
  return meta;
}

TEST(FlightSynthesisTest, CleanWindowPassesOfflineAnalyzer) {
  std::vector<RequestLifecycle> window;
  for (std::uint64_t i = 0; i < 16; ++i) {
    window.push_back(MakeLifecycle(i, 10000 + i * 2000, static_cast<std::int32_t>(i % 2)));
  }
  const trace::TraceCapture capture =
      trace::SynthesizeCaptureFromLifecycles(SynthesisMeta(), window, /*evicted=*/0);
  EXPECT_EQ(capture.records.size(), 3 * window.size());  // arrival + dispatch + segment
  EXPECT_EQ(capture.buffer_dropped, 0u);

  const trace::AnalyzerReport report =
      trace::AnalyzeChromeTraceJson(trace::ToChromeTraceJson(capture), trace::AnalyzerOptions{});
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_EQ(report.requests_complete, window.size());
  EXPECT_EQ(report.anatomy_identity_failures, 0u)
      << "synthesized timelines must satisfy the exact stage identity";
}

TEST(FlightSynthesisTest, PreemptedLifecyclesTruncateWithDeclaredLoss) {
  std::vector<RequestLifecycle> window;
  window.push_back(MakeLifecycle(0, 10000, 0));
  RequestLifecycle preempted = MakeLifecycle(1, 20000, 1);
  preempted.preemptions = 2;
  preempted.preempt_tsc[0] = preempted.first_run_tsc + 300;  // first yield stamped
  window.push_back(preempted);

  const trace::TraceCapture capture =
      trace::SynthesizeCaptureFromLifecycles(SynthesisMeta(), window, /*evicted=*/3);
  // 2 * preemptions records truncated, plus the 3 ring-evicted lifecycles.
  EXPECT_EQ(capture.buffer_dropped, 3u + 2u * 2u);

  const trace::AnalyzerReport report =
      trace::AnalyzeChromeTraceJson(trace::ToChromeTraceJson(capture), trace::AnalyzerOptions{});
  // Accounted-lossy, not mis-stitched: the analyzer accepts the file with
  // the truncated request counted, and no invariant it can still check fails.
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_EQ(report.requests_complete + report.requests_truncated, window.size());
}

TEST(FlightSynthesisTest, CorruptedStampChainFailsAnatomyIdentity) {
  std::vector<RequestLifecycle> window;
  RequestLifecycle corrupt = MakeLifecycle(0, 10000, 0);
  corrupt.adopt_tsc = corrupt.dispatch_tsc + 500;  // adoption after dispatch: impossible
  window.push_back(corrupt);

  const trace::TraceCapture capture =
      trace::SynthesizeCaptureFromLifecycles(SynthesisMeta(), window, /*evicted=*/0);
  const trace::AnalyzerReport report =
      trace::AnalyzeChromeTraceJson(trace::ToChromeTraceJson(capture), trace::AnalyzerOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.anatomy_identity_failures, 1u)
      << "the stage-sum identity must catch the corrupted chain";
}

// ---------------------------------------------------------------------------
// Live flight recorder
// ---------------------------------------------------------------------------

trace::MetricsSampler::Options SamplerOptions(double window_ms) {
  trace::MetricsSampler::Options options;
  options.window_ms = window_ms;
  return options;
}

TEST(FlightRecorderTest, InjectedDeadlineMissBurstTriggersValidDump) {
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string dump_path = testing::TempDir() + "/flight_burst.trace.json";
  std::remove(dump_path.c_str());

  Runtime::Options options;
  options.worker_count = 2;
  options.quantum_us = 100.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) { SpinWithProbesUs(1.0); };
  Runtime runtime(options, callbacks);
  runtime.Start();

  trace::FlightRecorderOptions flight_options;
  flight_options.deadline_miss_burst = 8;  // the injected anomaly's trigger
  flight_options.dump_path = dump_path;
  flight_options.quantum_us = options.quantum_us;
  trace::FlightRecorder flight(flight_options);
  trace::MetricsSampler sampler(SamplerOptions(2.0), [&runtime] { return runtime.GetTelemetry(); },
                                &flight);
  sampler.Start();
  EXPECT_TRUE(flight.armed());

  // The anomaly: a burst of requests whose deadlines are already expired at
  // dispatch (slack bucket 0). Submitted faster than one poll window.
  constexpr std::uint64_t kRequests = 256;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    while (!runtime.Submit(i, 0, nullptr, /*deadline_us=*/0.001)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();

  // Wait on the recorder's own counters, bounded: the burst lands in some
  // poll window well before the deadline.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // concord-lint: allow-no-probe (test wait loop)
  while (flight.triggers_fired() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  runtime.Shutdown();

  ASSERT_GE(flight.triggers_fired(), 1u) << "deadline-miss burst never fired";
  ASSERT_GE(flight.dumps_written(), 1u);
  EXPECT_NE(flight.last_trigger().find("deadline_miss_burst"), std::string::npos)
      << flight.last_trigger();

  // The dump must be a valid concord.trace.v1 file: offline-analyzable with
  // every drop accounted — the same gate `concord_trace --check` applies.
  const trace::AnalyzerReport report =
      trace::AnalyzeChromeTraceFile(dump_path, trace::AnalyzerOptions{});
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_GT(report.requests_complete, 0u);
  EXPECT_EQ(report.anatomy_identity_failures, 0u);
  std::remove(dump_path.c_str());
}

TEST(FlightRecorderTest, DumpNowHonorsBudgetAndStatusJsonReportsState) {
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string dump_path = testing::TempDir() + "/flight_manual.trace.json";
  std::remove(dump_path.c_str());

  Runtime::Options options;
  options.worker_count = 1;
  options.quantum_us = 100.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) {};
  Runtime runtime(options, callbacks);
  runtime.Start();

  trace::FlightRecorderOptions flight_options;  // every trigger disabled
  flight_options.dump_path = dump_path;
  flight_options.max_dumps = 1;
  trace::FlightRecorder flight(flight_options);
  trace::MetricsSampler sampler(SamplerOptions(2.0), [&runtime] { return runtime.GetTelemetry(); },
                                &flight);
  sampler.Start();  // baseline first: only lifecycles completed while armed buffer

  for (std::uint64_t i = 0; i < 16; ++i) {
    while (!runtime.Submit(i, 0, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();

  // Wait until at least one poll window has buffered the completed requests.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // concord-lint: allow-no-probe (test wait loop)
  while (flight.lifecycles_buffered() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(flight.lifecycles_buffered(), 0u);

  const std::string written = flight.DumpNow("unit test");
  EXPECT_EQ(written, dump_path);
  EXPECT_EQ(flight.dumps_written(), 1u);
  // Budget spent: further dumps are counted but not written.
  EXPECT_EQ(flight.DumpNow("over budget"), std::string());
  EXPECT_EQ(flight.dumps_written(), 1u);
  EXPECT_EQ(flight.triggers_fired(), 2u);

  const std::string status = flight.StatusJson();
  EXPECT_NE(status.find("\"armed\": true"), std::string::npos) << status;
  // last_trigger tracks every fire, including the one past the dump budget.
  EXPECT_NE(status.find("manual: over budget"), std::string::npos) << status;
  sampler.Stop();
  EXPECT_FALSE(flight.armed());
  runtime.Shutdown();

  const trace::AnalyzerReport report =
      trace::AnalyzeChromeTraceFile(dump_path, trace::AnalyzerOptions{});
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  std::remove(dump_path.c_str());
}

TEST(FlightRecorderTest, FinalWindowReachesTheRecorder) {
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string dump_path = testing::TempDir() + "/flight_final.trace.json";
  std::remove(dump_path.c_str());

  Runtime::Options options;
  options.worker_count = 2;
  options.quantum_us = 100.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) { SpinWithProbesUs(1.0); };
  Runtime runtime(options, callbacks);
  runtime.Start();

  trace::FlightRecorderOptions flight_options;  // every trigger disabled
  flight_options.dump_path = dump_path;
  trace::FlightRecorder flight(flight_options);
  // A window far longer than the run: no tick elapses, so every lifecycle
  // reaches the recorder through Stop()'s final flush.
  trace::MetricsSampler sampler(SamplerOptions(500.0),
                                [&runtime] { return runtime.GetTelemetry(); }, &flight);
  sampler.Start();
  constexpr std::uint64_t kRequests = 1000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    while (!runtime.Submit(i, 0, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  sampler.Stop();
  runtime.Shutdown();

  EXPECT_EQ(flight.lifecycles_buffered(), kRequests);
  EXPECT_EQ(flight.lifecycles_evicted(), 0u);
  ASSERT_EQ(flight.DumpNow("after stop"), dump_path);
  const trace::AnalyzerReport report =
      trace::AnalyzeChromeTraceFile(dump_path, trace::AnalyzerOptions{});
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_EQ(report.requests_total, kRequests);
  EXPECT_EQ(report.requests_complete + report.requests_truncated, kRequests);
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace concord
