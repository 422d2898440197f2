// Quickstart: the paper's three-callback API (§4.1) end to end.
//
// Starts a Concord runtime, serves a bimodal synthetic workload (99.5% short
// requests, 0.5% long ones) through an open-loop Poisson load generator, and
// prints the slowdown profile. The long requests are 1000x the short ones,
// yet the preemptive quantum keeps the short requests' tail slowdown far
// below what run-to-completion would produce.
//
// Usage: quickstart [offered_krps] [request_count] [--telemetry-out=FILE]
//                   [--trace-out=FILE] [--metrics-out=FILE]
//                   [--metrics-window-ms=MS] [--policy=NAME] [--shards=N]
//                   [--placement=NAME] [--statusz-port=N] [--flight-dump=FILE]
//
// --statusz-port=N serves live introspection on 127.0.0.1:N while the run is
// in flight (port 0 picks an ephemeral port, printed at startup):
//   /statusz   human-readable runtime status + latency anatomy
//   /metricsz  Prometheus text exposition (the MetricsSampler output)
//   /flightz   flight-recorder trigger status (JSON)
// --flight-dump=FILE arms the anomaly-triggered flight recorder; on a
// deadline-miss burst, sustained negative slack, ingress backpressure, or a
// p99 slowdown spike it dumps the recent scheduling past to FILE as a
// concord.trace.v1 file for offline autopsy with concord_trace.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/synthetic.h"
#include "src/loadgen/loadgen.h"
#include "src/obs/status_server.h"
#include "src/runtime/policy.h"
#include "src/runtime/sharded_runtime.h"
#include "src/telemetry/export.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/metrics_sampler.h"
#include "src/workload/workload_factory.h"

int main(int argc, char** argv) {
  std::vector<const char*> positional;  // flags (--*) are not positional
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      positional.push_back(argv[i]);
    }
  }
  const double offered_krps = !positional.empty() ? std::atof(positional[0]) : 2.0;
  const std::uint64_t count =
      positional.size() > 1 ? static_cast<std::uint64_t>(std::atoll(positional[1])) : 2000;

  // A bimodal workload: mostly 20us requests with occasional 2ms monsters.
  concord::DiscreteMixtureDistribution workload({
      {"short", 0.995, 20.0 * 1000.0},
      {"long", 0.005, 2000.0 * 1000.0},
  });
  const concord::SyntheticService service = concord::SyntheticService::FromDistribution(workload);
  concord::OpenLoopLoadgen loadgen(workload, {20.0, 2000.0}, /*seed=*/1);

  const std::string trace_out = concord::telemetry::TraceOutPath(argc, argv);
  const std::string metrics_out = concord::telemetry::MetricsOutPath(argc, argv);
  const std::string flight_dump = concord::telemetry::OutPathFromFlagOrEnv(
      argc, argv, "--flight-dump=", "CONCORD_FLIGHT_DUMP");
  const std::string statusz_port = concord::telemetry::OutPathFromFlagOrEnv(
      argc, argv, "--statusz-port=", "CONCORD_STATUSZ_PORT");
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
  callbacks.setup = [] { std::puts("setup(): global state initialized"); };
  callbacks.setup_worker = [](int worker) {
    std::printf("setup_worker(%d)\n", worker);
  };
  callbacks.handle_request = [&service](const concord::RequestView& view) {
    service.Handle(view);
  };
  // Multi-shard runs complete on every shard's dispatcher concurrently.
  callbacks.on_complete = selection.shard_count > 1 ? loadgen.LockedCompletionHook()
                                                    : loadgen.CompletionHook();

  concord::ShardedRuntime runtime(options, callbacks);
  runtime.Start();
  std::unique_ptr<concord::trace::FlightRecorder> flight;
  if (!flight_dump.empty()) {
    concord::trace::FlightRecorderOptions flight_options;
    flight_options.dump_path = flight_dump;
    // Trigger set tuned for this example's bimodal workload: fire on any
    // negative-slack burst, on sustained backpressure, or on a tail blowup.
    flight_options.deadline_miss_burst = 16;
    flight_options.ingress_reject_burst = 256;
    flight_options.p99_slowdown = 500.0;
    flight_options.jbsq_depth = options.shard.jbsq_depth;
    flight_options.quantum_us = options.shard.quantum_us;
    flight = std::make_unique<concord::trace::FlightRecorder>(flight_options);
  }
  std::unique_ptr<concord::trace::MetricsSampler> sampler;
  // The /metricsz endpoint serves the sampler's Prometheus exposition and the
  // flight recorder subscribes to its windows, so either implies sampling
  // even without --metrics-out=.
  if (!metrics_out.empty() || !statusz_port.empty() || flight != nullptr) {
    sampler = concord::trace::StartMetricsSampler(
        argc, argv, metrics_out, [&runtime] { return runtime.GetTelemetry(); }, flight.get());
  }
  std::unique_ptr<concord::obs::StatusServer> statusz;
  if (!statusz_port.empty()) {
    concord::obs::StatusServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(std::atoi(statusz_port.c_str()));
    statusz = std::make_unique<concord::obs::StatusServer>(server_options);
    statusz->Handle("/statusz", "text/plain; charset=utf-8", [&runtime, &flight] {
      const concord::telemetry::TelemetrySnapshot snapshot = runtime.GetTelemetry();
      const concord::telemetry::WorkerSnapshot totals = snapshot.Totals();
      std::string body = "concord quickstart\n";
      body += "policy: " + snapshot.policy + "\n";
      body += "completed: " + std::to_string(snapshot.RequestsCompleted()) + "\n";
      body += "preemptions requested: " + std::to_string(totals.preemptions_requested) +
              ", honored: " + std::to_string(totals.probe_yields) + "\n";
      body += "ingress rejected: " + std::to_string(snapshot.dispatcher.ingress_rejected) + "\n";
      body += "\nlatency anatomy (per class):\n" + snapshot.anatomy.SummaryText(snapshot.tsc_ghz);
      if (flight != nullptr) {
        body += "\nflight recorder: " + flight->StatusJson() + "\n";
      }
      return body;
    });
    statusz->Handle("/metricsz", "text/plain; version=0.0.4", [&sampler] {
      return sampler->ToPrometheusText();
    });
    if (flight != nullptr) {
      statusz->Handle("/flightz", "application/json", [&flight] { return flight->StatusJson(); });
    }
    if (statusz->Start()) {
      std::printf("statusz: serving http://127.0.0.1:%u/statusz (and /metricsz)\n",
                  static_cast<unsigned>(statusz->port()));
    } else {
      std::fprintf(stderr, "statusz: failed to bind 127.0.0.1:%s\n", statusz_port.c_str());
      statusz.reset();
    }
  }
  std::printf("driving %llu requests at %.1f kRps (policy=%s, %d shard%s)...\n",
              static_cast<unsigned long long>(count), offered_krps,
              concord::PolicyKindName(selection.policy), selection.shard_count,
              selection.shard_count == 1 ? "" : "s");
  const concord::LoadgenReport report = loadgen.Run(&runtime, offered_krps, count);
  const concord::Runtime::Stats stats = runtime.GetStats();
  const concord::telemetry::TelemetrySnapshot telemetry = runtime.GetTelemetry();
  bool export_ok = true;
  if (statusz != nullptr) {
    statusz->Stop();
  }
  if (sampler != nullptr) {
    // Flushes the final window, into the flight recorder too.
    export_ok = sampler->StopAndWriteSeries(metrics_out) && export_ok;
  }
  if (flight != nullptr && flight->triggers_fired() > 0) {
    std::printf("flight recorder: %llu trigger(s), %llu dump(s); last: %s\n",
                static_cast<unsigned long long>(flight->triggers_fired()),
                static_cast<unsigned long long>(flight->dumps_written()),
                flight->last_trigger().c_str());
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

  std::printf("\ncompleted %llu/%llu (dropped %llu), achieved %.2f kRps\n",
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.issued),
              static_cast<unsigned long long>(report.dropped), report.achieved_krps);
  std::printf("slowdown: p50=%.1f p99=%.1f p99.9=%.1f mean=%.1f\n", report.p50_slowdown,
              report.p99_slowdown, report.p999_slowdown, report.mean_slowdown);
  std::printf("preemptions=%llu dispatcher_completed=%llu\n",
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
