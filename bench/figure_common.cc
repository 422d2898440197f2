#include "bench/figure_common.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "src/runtime/runtime.h"
#include "src/runtime/sharded_runtime.h"
#include "src/stats/slowdown.h"
#include "src/stats/table.h"
#include "src/telemetry/export.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/metrics_sampler.h"

namespace concord {

std::size_t BenchRequestCount(std::size_t default_count, int argc, char** argv) {
  const long long value = telemetry::IntFromFlagOrEnv(argc, argv, "--requests=",
                                                      "CONCORD_BENCH_REQUESTS",
                                                      static_cast<long long>(default_count));
  return value > 0 ? static_cast<std::size_t>(value) : default_count;
}

RuntimeSelection BenchSelection(int argc, char** argv) {
  return SelectionFromArgsOrEnv(argc, argv);
}

void PrintFigureHeader(const std::string& figure, const std::string& description,
                       const std::string& paper_expectation) {
  std::cout << "=== " << figure << " ===\n"
            << description << "\n"
            << "Paper expectation: " << paper_expectation << "\n\n";
}

void RunSlowdownSweep(const std::vector<SystemConfig>& systems, const CostModel& costs,
                      const ServiceDistribution& distribution,
                      const std::vector<double>& loads_krps, const ExperimentParams& params) {
  std::vector<std::string> headers = {"load_krps"};
  for (const SystemConfig& system : systems) {
    headers.push_back("p999_slowdown[" + system.name + "]");
  }
  TablePrinter table(std::move(headers));
  std::vector<std::vector<LoadPoint>> sweeps;
  sweeps.reserve(systems.size());
  for (const SystemConfig& system : systems) {
    sweeps.push_back(RunLoadSweep(system, costs, distribution, loads_krps, params));
  }
  for (std::size_t i = 0; i < loads_krps.size(); ++i) {
    std::vector<std::string> row = {TablePrinter::Fixed(loads_krps[i], 1)};
    for (const auto& sweep : sweeps) {
      row.push_back(TablePrinter::Fixed(sweep[i].p999_slowdown, 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void PrintSloCrossovers(const std::vector<SystemConfig>& systems, const CostModel& costs,
                        const ServiceDistribution& distribution, double lo_krps, double hi_krps,
                        const ExperimentParams& params, std::size_t baseline_index) {
  TablePrinter table({"system", "max_load_krps@50x", "vs_" + systems[baseline_index].name});
  std::vector<double> crossovers;
  crossovers.reserve(systems.size());
  for (const SystemConfig& system : systems) {
    crossovers.push_back(FindMaxLoadUnderSlo(system, costs, distribution, kPaperSloSlowdown,
                                             lo_krps, hi_krps, params));
  }
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const double ratio = crossovers[i] / crossovers[baseline_index] - 1.0;
    table.AddRow({systems[i].name, TablePrinter::Fixed(crossovers[i], 1),
                  i == baseline_index ? "-" : TablePrinter::Percent(ratio, 0)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

telemetry::TelemetrySnapshot RunLiveSpinTelemetry(double quantum_us, double service_us,
                                                  int request_count, int worker_count) {
  return RunLiveSpinTelemetry(quantum_us, service_us, request_count, worker_count, 0, nullptr);
}

telemetry::TelemetrySnapshot RunLiveSpinTelemetry(double quantum_us, double service_us,
                                                  int request_count, int worker_count, int argc,
                                                  char** argv) {
  const std::string trace_path = telemetry::TraceOutPath(argc, argv);
  const std::string metrics_path = telemetry::MetricsOutPath(argc, argv);
  const RuntimeSelection selection = BenchSelection(argc, argv);
  ShardedRuntime::Options options;
  options.shard.worker_count = worker_count;
  options.shard.quantum_us = quantum_us;
  options.shard.jbsq_depth = 2;
  options.shard.policy = selection.policy;
  options.shard_count = selection.shard_count;
  options.placement = selection.placement;
  options.allowed_cpus = selection.cpus;
  if (!trace_path.empty()) {
    // Bounded but generous: ~4 records/request for typical live sections, so
    // even the largest figure run fits with zero drops (any excess is
    // exactly counted and reported by concord_trace).
    options.shard.trace_buffer_capacity = std::size_t{1} << 18;
  }
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [service_us](const RequestView&) { SpinWithProbesUs(service_us); };
  ShardedRuntime runtime(options, callbacks);
  runtime.Start();
  std::unique_ptr<trace::MetricsSampler> sampler;
  if (!metrics_path.empty()) {
    sampler = trace::StartMetricsSampler(argc, argv, metrics_path,
                                         [&runtime] { return runtime.GetTelemetry(); });
  }
  // Submit the whole batch up front: the backlog keeps "other work pending"
  // true, so the dispatcher actually requests preemptions (§3.1).
  for (int i = 0; i < request_count; ++i) {
    while (!runtime.Submit(static_cast<std::uint64_t>(i), 0, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  telemetry::TelemetrySnapshot snapshot = runtime.GetTelemetry();
  if (sampler != nullptr) {
    sampler->StopAndWriteSeries(metrics_path);  // flushes the final window
  }
  runtime.Shutdown();
  if (!trace_path.empty()) {
    // After Shutdown the dispatchers' final ring drains have run: every
    // capture is complete up to its exactly-counted drops. One file per
    // shard ("out.json" -> "out.shard1.json"...), each independently
    // checkable by concord_trace; single-shard keeps the plain path.
    for (int s = 0; s < runtime.shard_count(); ++s) {
      trace::WriteChromeTrace(
          runtime.GetShardTrace(s),
          telemetry::ShardedOutPath(trace_path, s, runtime.shard_count()));
    }
  }
  return snapshot;
}

// concord-lint: allow-no-probe (bench harness; drives the runtime from the main thread)
void RunLivePolicyComparison(double quantum_us, double short_us, double long_us, int long_every,
                             int request_count, double gap_us, int argc, char** argv) {
  const RuntimeSelection selection = BenchSelection(argc, argv);
  std::cout << "--- live policy head-to-head (real runtime, host-scaled: 2 workers/shard, "
            << selection.shard_count << " shard" << (selection.shard_count == 1 ? "" : "s")
            << ", q=" << quantum_us << "us) ---\n";
  TablePrinter table({"policy", "completed", "p50_slowdown", "p99_slowdown", "p999_slowdown"});
  // Deadlines at 10x clean service: tight enough that EDF's ordering tracks
  // size (short requests get earlier deadlines), loose enough that a busy
  // host still mostly meets them.
  const double short_deadline_us = short_us * 10.0;
  const double long_deadline_us = long_us * 10.0;
  for (PolicyKind policy :
       {PolicyKind::kFcfsNonPreemptive, PolicyKind::kSingleQueuePreemptive,
        PolicyKind::kConcordJbsq, PolicyKind::kEdfNonPreemptive, PolicyKind::kApproxSrpt,
        PolicyKind::kConcordJbsqAdaptive}) {
    ShardedRuntime::Options options;
    options.shard.worker_count = 2;
    options.shard.quantum_us = quantum_us;
    options.shard.jbsq_depth = 2;
    options.shard.policy = policy;
    options.shard_count = selection.shard_count;
    options.placement = selection.placement;
    options.allowed_cpus = selection.cpus;
    SlowdownTracker tracker;
    std::uint64_t completed = 0;
    std::mutex complete_mu;  // on_complete runs on every shard's dispatcher
    double tsc_ghz = 1.0;    // written once before the first Submit
    Runtime::Callbacks callbacks;
    callbacks.handle_request = [short_us, long_us](const RequestView& view) {
      SpinWithProbesUs(view.request_class == 1 ? long_us : short_us);
    };
    callbacks.on_complete = [&](const RequestView& view, std::uint64_t latency_tsc) {
      const double latency_ns = static_cast<double>(latency_tsc) / tsc_ghz;
      const double service_ns = (view.request_class == 1 ? long_us : short_us) * 1000.0;
      std::lock_guard<std::mutex> lock(complete_mu);
      ++completed;
      tracker.Record(latency_ns, service_ns, view.request_class);
    };
    ShardedRuntime runtime(options, callbacks);
    runtime.Start();
    tsc_ghz = runtime.tsc_ghz();
    // Open-loop pacing: a fixed inter-arrival gap, so the percentiles
    // measure scheduling rather than run length (same discipline as the
    // model's open-loop generator).
    const double gap_ns = gap_us * 1000.0;
    const auto pace_start = std::chrono::steady_clock::now();
    for (int i = 0; i < request_count; ++i) {
      const double due_ns = static_cast<double>(i) * gap_ns;
      // concord-lint: allow-no-probe (open-loop pacing loop on the main thread, not handler code)
      for (;;) {
        const double elapsed_ns =
            std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - pace_start)
                .count();
        if (elapsed_ns >= due_ns) {
          break;
        }
        std::this_thread::yield();
      }
      const int request_class = (long_every > 0 && i % long_every == long_every - 1) ? 1 : 0;
      const double deadline_us = request_class == 1 ? long_deadline_us : short_deadline_us;
      while (!runtime.Submit(static_cast<std::uint64_t>(i), request_class, nullptr, deadline_us)) {
        std::this_thread::yield();
      }
    }
    runtime.WaitIdle();
    runtime.Shutdown();
    table.AddRow({PolicyKindName(policy), std::to_string(completed),
                  TablePrinter::Fixed(tracker.QuantileSlowdown(0.50), 1),
                  TablePrinter::Fixed(tracker.QuantileSlowdown(0.99), 1),
                  TablePrinter::Fixed(tracker.P999Slowdown(), 1)});
  }
  table.Print(std::cout);
  std::cout << "(live curves are host-scaled, not the paper's 14-worker testbed; compare "
               "shapes across policies, not absolute values against the model tables)\n\n";
}

void PrintLiveCounterCheck(const telemetry::TelemetrySnapshot& snapshot, double quantum_us,
                           double service_us) {
  if (!snapshot.enabled) {
    std::cout << "live counters: telemetry compiled out (CONCORD_TELEMETRY=OFF)\n\n";
    return;
  }
  const telemetry::WorkerSnapshot totals = snapshot.Totals();
  const auto completed = snapshot.RequestsCompleted();
  const double model_preemptions = std::floor(service_us / quantum_us);
  const double live_preemptions =
      completed > 0 ? static_cast<double>(totals.probe_yields) / static_cast<double>(completed)
                    : 0.0;
  TablePrinter table({"live counter", "value"});
  table.AddRow({"requests completed", std::to_string(completed)});
  table.AddRow({"probe polls", std::to_string(totals.probe_polls)});
  table.AddRow({"preemptions requested", std::to_string(totals.preemptions_requested)});
  table.AddRow({"preemptions honored", std::to_string(totals.probe_yields)});
  table.AddRow({"work-conserving quanta", std::to_string(snapshot.dispatcher.quanta_run)});
  table.AddRow({"preemptions/request (live)", TablePrinter::Fixed(live_preemptions, 2)});
  table.AddRow({"preemptions/request (model floor(S/q))",
                TablePrinter::Fixed(model_preemptions, 2)});
  table.Print(std::cout);
  std::cout << "(live counts trail the model on small or contended hosts: a "
               "request that outlives its quantum while the scheduler starves "
               "the dispatcher is preempted late or not at all)\n\n";
}

void PrintLiveAnatomy(const telemetry::TelemetrySnapshot& snapshot) {
  if (!snapshot.enabled) {
    std::cout << "latency anatomy: telemetry compiled out (CONCORD_TELEMETRY=OFF)\n\n";
    return;
  }
  if (snapshot.anatomy.TotalCompleted() == 0) {
    std::cout << "latency anatomy: no completed requests folded\n\n";
    return;
  }
  std::cout << "latency anatomy (mean us per stage; stages partition "
               "[arrival, complete] exactly):\n";
  TablePrinter table({"class", "requests", "ingress", "queue", "inbox", "service", "requeue",
                      "drain", "latency"});
  for (std::size_t slot = 0; slot < telemetry::kAnatomyClassSlots; ++slot) {
    const telemetry::AnatomyClassSnapshot& cls = snapshot.anatomy.classes[slot];
    if (cls.completed == 0) {
      continue;
    }
    double latency_us = 0.0;
    std::vector<std::string> row{std::to_string(slot), std::to_string(cls.completed)};
    for (int stage = 0; stage < telemetry::kAnatomyStages; ++stage) {
      const double mean_us = snapshot.anatomy.MeanStageUs(slot, stage, snapshot.tsc_ghz);
      latency_us += mean_us;
      row.push_back(TablePrinter::Fixed(mean_us, 2));
    }
    row.push_back(TablePrinter::Fixed(latency_us, 2));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void MaybeWriteTelemetry(const telemetry::TelemetrySnapshot& snapshot, int argc, char** argv) {
  telemetry::MaybeExportSnapshot(snapshot, argc, argv);
}

}  // namespace concord
