// LevelDB-like key-value server on the Concord runtime: the paper's §5.3
// application, end to end on real threads.
//
// Populates the store with 15,000 keys (as in the paper), then serves the
// ZippyDB-style mix — GETs, PUTs, DELETEs and full-database SCANs — under
// preemptive scheduling. SCANs execute probes at every iterator step, so a
// multi-hundred-microsecond scan never blocks a GET for more than about a
// quantum; PUT/DELETE critical sections are protected by the lock-safety
// counter and are never preempted mid-mutation.
//
// Usage: kvstore_server [offered_krps] [request_count] [scan_percent]
//                       [--telemetry-out=FILE] [--trace-out=FILE]
//                       [--metrics-out=FILE] [--metrics-window-ms=MS]
//                       [--policy=NAME] [--shards=N] [--placement=NAME]
//
// Network mode: --listen=PORT (0 = ephemeral) serves the same store over the
// Concord RPC framing (docs/networking.md) instead of the in-process
// loadgen: requests arrive from net_loadgen over loopback TCP, responses are
// written from the completion sink, and the run lasts --duration-s= seconds
// (default 5). --statusz-port=N additionally serves live /statusz including
// the socket-layer counters. On exit the server checks the wire conservation
// identities (frames decoded == submitted + rejected; submitted ==
// responses + dropped) and fails loudly when they do not hold.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kvstore/db.h"
#include "src/loadgen/loadgen.h"
#include "src/net/server.h"
#include "src/obs/status_server.h"
#include "src/runtime/policy.h"
#include "src/runtime/sharded_runtime.h"
#include "src/telemetry/export.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/metrics_sampler.h"
#include "src/workload/distribution.h"

namespace {

enum RequestClass { kGet = 0, kPut = 1, kDelete = 2, kScan = 3 };

// --listen= mode: the kvstore behind the epoll RPC front-end. Returns the
// process exit status. Kept separate from the loadgen path below so each
// mode reads top to bottom.
int RunListenServer(int argc, char** argv, int listen_port) {
  const double duration_s = static_cast<double>(std::max<long long>(
      1, concord::telemetry::IntFromFlagOrEnv(argc, argv, "--duration-s=",
                                              "CONCORD_NET_DURATION_S", 5)));
  const std::string statusz_port = concord::telemetry::OutPathFromFlagOrEnv(
      argc, argv, "--statusz-port=", "CONCORD_STATUSZ_PORT");
  const std::string trace_out = concord::telemetry::TraceOutPath(argc, argv);
  const concord::RuntimeSelection selection = concord::SelectionFromArgsOrEnv(argc, argv);

  concord::Db db;
  constexpr int kKeys = 15000;

  concord::ShardedRuntime::Options options;
  options.shard.worker_count = 2;
  options.shard.quantum_us = 50.0;
  options.shard.jbsq_depth = 2;
  options.shard.work_conserving_dispatcher = true;
  options.shard.policy = selection.policy;
  options.shard_count = selection.shard_count;
  options.placement = selection.placement;
  options.allowed_cpus = selection.cpus;
  if (!trace_out.empty()) {
    options.shard.trace_buffer_capacity = std::size_t{1} << 17;
  }

  concord::net::RpcServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(listen_port);
  concord::net::RpcServer server(server_options);

  concord::Runtime::Callbacks callbacks;
  callbacks.setup = [&db] {
    concord::PopulateDb(&db, kKeys, 64);
    std::printf("populated %d keys, %llu live\n", kKeys,
                static_cast<unsigned long long>(db.ScanCount()));
  };
  callbacks.handle_request = [&db](const concord::RequestView& view) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", static_cast<int>(view.id % kKeys));
    switch (view.request_class) {
      case kGet: {
        std::string value;
        db.Get(concord::Slice(key), &value);
        break;
      }
      case kPut:
        db.Put(concord::Slice(key), concord::Slice("updated-value"));
        break;
      case kDelete:
        db.Delete(concord::Slice(key));
        db.Put(concord::Slice(key), concord::Slice("reinserted"));
        break;
      case kScan:
        (void)db.ScanCount();
        break;
      default:
        break;
    }
  };
  // Responses flow through the socket sink, not an in-process hook.
  callbacks.completion_sink = server.sink();

  concord::ShardedRuntime runtime(options, callbacks);
  runtime.Start();
  if (!server.Start(&runtime)) {
    std::fprintf(stderr, "failed to bind 127.0.0.1:%d\n", listen_port);
    runtime.Shutdown();
    return 1;
  }
  // Scrape line for drivers (CI smoke): the resolved ephemeral port.
  std::printf("listening on 127.0.0.1:%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::unique_ptr<concord::obs::StatusServer> statusz;
  if (!statusz_port.empty()) {
    concord::obs::StatusServer::Options status_options;
    status_options.port = static_cast<std::uint16_t>(std::atoi(statusz_port.c_str()));
    statusz = std::make_unique<concord::obs::StatusServer>(status_options);
    statusz->Handle("/statusz", "text/plain; charset=utf-8", [&runtime, &server] {
      const concord::telemetry::TelemetrySnapshot snapshot = runtime.GetTelemetry();
      const concord::telemetry::NetSnapshot net = server.Snapshot();
      std::string body = "concord kvstore_server (listen mode)\n";
      body += "completed: " + std::to_string(snapshot.RequestsCompleted()) + "\n";
      body += "net.connections: opened " + std::to_string(net.connections_opened) +
              ", closed " + std::to_string(net.connections_closed) + "\n";
      body += "net.frames_decoded: " + std::to_string(net.frames_decoded) +
              " (decode errors " + std::to_string(net.decode_errors) + ")\n";
      body += "net.requests: submitted " + std::to_string(net.requests_submitted) +
              ", rejected " + std::to_string(net.requests_rejected) + "\n";
      body += "net.responses: written " + std::to_string(net.responses_written) +
              ", dropped " + std::to_string(net.responses_dropped) + "\n";
      return body;
    });
    if (statusz->Start()) {
      std::printf("statusz: serving http://127.0.0.1:%u/statusz\n",
                  static_cast<unsigned>(statusz->port()));
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "statusz: failed to bind 127.0.0.1:%s\n", statusz_port.c_str());
      statusz.reset();
    }
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long long>(duration_s * 1000.0)));

  // Stop the front-end first: it drains in-flight requests through the
  // still-running runtime, flushes responses, and releases its
  // RequestSources. Only then is it safe to shut the runtime down.
  server.Stop();
  const concord::telemetry::NetSnapshot net = server.Snapshot();
  if (statusz != nullptr) {
    statusz->Stop();
  }
  concord::telemetry::TelemetrySnapshot telemetry = runtime.GetTelemetry();
  telemetry.net = net;  // merge socket-layer counters into the export
  runtime.Shutdown();

  bool export_ok = true;
  if (!trace_out.empty()) {
    for (int s = 0; s < runtime.shard_count(); ++s) {
      export_ok = concord::trace::WriteChromeTrace(
                      runtime.GetShardTrace(s),
                      concord::telemetry::ShardedOutPath(trace_out, s, runtime.shard_count())) &&
                  export_ok;
    }
  }
  export_ok = concord::telemetry::MaybeExportSnapshot(telemetry, argc, argv) && export_ok;

  std::printf("net: %llu connections, %llu frames decoded (%llu decode errors)\n",
              static_cast<unsigned long long>(net.connections_opened),
              static_cast<unsigned long long>(net.frames_decoded),
              static_cast<unsigned long long>(net.decode_errors));
  std::printf("net: %llu submitted, %llu rejected, %llu responses, %llu dropped\n",
              static_cast<unsigned long long>(net.requests_submitted),
              static_cast<unsigned long long>(net.requests_rejected),
              static_cast<unsigned long long>(net.responses_written),
              static_cast<unsigned long long>(net.responses_dropped));
  const bool conserved = server.ConservationHolds();
  std::printf("conservation: %s\n", conserved ? "OK" : "VIOLATION");
  return conserved && export_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const long long listen_port = concord::telemetry::IntFromFlagOrEnv(
      argc, argv, "--listen=", "CONCORD_LISTEN_PORT", -1);
  if (listen_port >= 0) {
    return RunListenServer(argc, argv, static_cast<int>(listen_port));
  }
  std::vector<const char*> positional;  // flags (--*) are not positional
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      positional.push_back(argv[i]);
    }
  }
  const double offered_krps = !positional.empty() ? std::atof(positional[0]) : 3.0;
  const std::uint64_t count =
      positional.size() > 1 ? static_cast<std::uint64_t>(std::atoll(positional[1])) : 3000;
  const double scan_percent = positional.size() > 2 ? std::atof(positional[2]) : 3.0;

  concord::Db db;
  constexpr int kKeys = 15000;

  // The ZippyDB mix with a configurable scan share; the remaining weight is
  // split 78/13/6-proportionally across GET/PUT/DELETE.
  const double rest = (100.0 - scan_percent) / 97.0;
  concord::DiscreteMixtureDistribution workload({
      {"GET", 0.78 * rest, 600.0},
      {"PUT", 0.13 * rest, 2300.0},
      {"DELETE", 0.06 * rest, 2300.0},
      {"SCAN", scan_percent / 100.0, 500000.0},
  });
  // Clean service times for slowdown accounting (paper-measured values).
  concord::OpenLoopLoadgen loadgen(workload, {0.6, 2.3, 2.3, 500.0}, /*seed=*/7);

  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> deletes{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> scanned_pairs{0};

  const std::string trace_out = concord::telemetry::TraceOutPath(argc, argv);
  const std::string metrics_out = concord::telemetry::MetricsOutPath(argc, argv);
  const concord::RuntimeSelection selection = concord::SelectionFromArgsOrEnv(argc, argv);

  concord::ShardedRuntime::Options options;
  options.shard.worker_count = 2;
  options.shard.quantum_us = 50.0;
  options.shard.jbsq_depth = 2;
  options.shard.work_conserving_dispatcher = true;
  options.shard.policy = selection.policy;
  options.shard_count = selection.shard_count;
  options.placement = selection.placement;
  options.allowed_cpus = selection.cpus;
  if (!trace_out.empty()) {
    options.shard.trace_buffer_capacity = std::size_t{1} << 17;  // scheduling-trace capture on
  }

  concord::Runtime::Callbacks callbacks;
  callbacks.setup = [&db] {
    concord::PopulateDb(&db, kKeys, 64);
    std::printf("populated %d keys, %llu live\n", kKeys,
                static_cast<unsigned long long>(db.ScanCount()));
  };
  callbacks.handle_request = [&](const concord::RequestView& view) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", static_cast<int>(view.id % kKeys));
    switch (view.request_class) {
      case kGet: {
        std::string value;
        db.Get(concord::Slice(key), &value);
        gets.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case kPut:
        db.Put(concord::Slice(key), concord::Slice("updated-value"));
        puts.fetch_add(1, std::memory_order_relaxed);
        break;
      case kDelete:
        // Delete then re-insert so the database keeps its size.
        db.Delete(concord::Slice(key));
        db.Put(concord::Slice(key), concord::Slice("reinserted"));
        deletes.fetch_add(1, std::memory_order_relaxed);
        break;
      case kScan: {
        scanned_pairs.fetch_add(db.ScanCount(), std::memory_order_relaxed);
        scans.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      default:
        break;
    }
  };
  // Multi-shard runs complete on every shard's dispatcher concurrently.
  callbacks.on_complete = selection.shard_count > 1 ? loadgen.LockedCompletionHook()
                                                    : loadgen.CompletionHook();

  concord::ShardedRuntime runtime(options, callbacks);
  runtime.Start();
  std::unique_ptr<concord::trace::MetricsSampler> sampler;
  if (!metrics_out.empty()) {
    sampler = concord::trace::StartMetricsSampler(argc, argv, metrics_out,
                                                  [&runtime] { return runtime.GetTelemetry(); });
  }
  std::printf("serving %llu requests at %.1f kRps (%.1f%% scans, policy=%s, %d shard%s)...\n",
              static_cast<unsigned long long>(count), offered_krps, scan_percent,
              concord::PolicyKindName(selection.policy), selection.shard_count,
              selection.shard_count == 1 ? "" : "s");
  const concord::LoadgenReport report = loadgen.Run(&runtime, offered_krps, count);
  const concord::Runtime::Stats stats = runtime.GetStats();
  const concord::telemetry::TelemetrySnapshot telemetry = runtime.GetTelemetry();
  bool export_ok = true;
  if (sampler != nullptr) {
    export_ok = sampler->StopAndWriteSeries(metrics_out) && export_ok;  // flushes the final window
  }
  runtime.Shutdown();
  if (!trace_out.empty()) {
    // One capture per shard, each independently checkable by concord_trace;
    // single-shard keeps the plain path.
    for (int s = 0; s < runtime.shard_count(); ++s) {
      export_ok = concord::trace::WriteChromeTrace(
                      runtime.GetShardTrace(s),
                      concord::telemetry::ShardedOutPath(trace_out, s, runtime.shard_count())) &&
                  export_ok;
    }
  }

  std::printf("\nops: %llu GET, %llu PUT, %llu DELETE, %llu SCAN (%llu pairs walked)\n",
              static_cast<unsigned long long>(gets.load()),
              static_cast<unsigned long long>(puts.load()),
              static_cast<unsigned long long>(deletes.load()),
              static_cast<unsigned long long>(scans.load()),
              static_cast<unsigned long long>(scanned_pairs.load()));
  std::printf("slowdown: p50=%.1f p99=%.1f p99.9=%.1f\n", report.p50_slowdown,
              report.p99_slowdown, report.p999_slowdown);
  std::printf("preemptions=%llu (scans yielding to point queries), dispatcher_completed=%llu\n",
              static_cast<unsigned long long>(stats.preemptions),
              static_cast<unsigned long long>(stats.dispatcher_completed));
  if (telemetry.enabled) {
    const concord::telemetry::WorkerSnapshot totals = telemetry.Totals();
    std::printf("telemetry: probe_polls=%llu preempt_requested=%llu preempt_honored=%llu "
                "dispatcher_quanta=%llu\n",
                static_cast<unsigned long long>(totals.probe_polls),
                static_cast<unsigned long long>(totals.preemptions_requested),
                static_cast<unsigned long long>(totals.probe_yields),
                static_cast<unsigned long long>(telemetry.dispatcher.quanta_run));
  }
  export_ok = concord::telemetry::MaybeExportSnapshot(telemetry, argc, argv) && export_ok;
  return export_ok ? 0 : 1;
}
