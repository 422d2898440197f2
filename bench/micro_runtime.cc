// Runtime microbenchmarks (google-benchmark): end-to-end costs of the real
// runtime's moving parts on the host. On a machine with >= workers+2 cores
// these approximate the paper's component numbers; on smaller hosts they
// measure functional overhead only.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/loadgen/loadgen.h"
#include "src/runtime/instrument.h"
#include "src/runtime/policy.h"
#include "src/runtime/runtime.h"
#include "src/runtime/sharded_runtime.h"
#include "src/stats/slowdown.h"
#include "src/workload/distribution.h"
#include "src/telemetry/event_ring.h"
#include "src/telemetry/export.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/metrics_sampler.h"

namespace concord {
namespace {

// CONCORD_BENCH_TRACE=1: run the throughput bench with the full
// observability stack live (scheduling-trace capture plus a 10 ms metrics
// sampler). The CI telemetry-overhead gate measures this configuration
// against a CONCORD_TELEMETRY=OFF build.
bool BenchTraceEnabled() {
  const char* env = std::getenv("CONCORD_BENCH_TRACE");
  return env != nullptr && env[0] == '1';
}

// CONCORD_BENCH_FLIGHT=1: additionally arm the anomaly-triggered flight
// recorder during the throughput bench with every trigger disabled, so CI
// can bound the armed-idle cost (lifecycle buffering on the metrics
// sampler's thread, no dumps) against the flight-recorder-off run.
bool BenchFlightEnabled() {
  const char* env = std::getenv("CONCORD_BENCH_FLIGHT");
  return env != nullptr && env[0] == '1';
}

void BM_SubmitCompleteRoundTrip(benchmark::State& state) {
  // Single in-flight request at a time: measures the full submit -> dispatch
  // -> fiber run -> completion path.
  std::atomic<std::uint64_t> completed{0};
  Runtime::Options options;
  options.worker_count = 1;
  options.quantum_us = 1000.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) {};
  callbacks.on_complete = [&completed](const RequestView&, std::uint64_t) {
    completed.fetch_add(1, std::memory_order_release);
  };
  Runtime runtime(options, callbacks);
  runtime.Start();
  std::uint64_t id = 0;
  // Driver loop on the bench thread, not handler code. concord-lint: allow-no-probe
  for (auto _ : state) {
    const std::uint64_t target = completed.load(std::memory_order_acquire) + 1;
    while (!runtime.Submit(id++, 0, nullptr)) {
      std::this_thread::yield();
    }
    while (completed.load(std::memory_order_acquire) < target) {
      CpuRelax();
    }
  }
  runtime.Shutdown();
}
BENCHMARK(BM_SubmitCompleteRoundTrip);

// Bench driver on the load-generating thread, not handler code; the only
// loops are the submit spin and WaitIdle. concord-lint: allow-no-probe
void BM_PipelinedThroughput(benchmark::State& state) {
  // Keeps a window of requests in flight: the runtime's sustainable
  // request rate for no-op handlers.
  Runtime::Options options;
  options.worker_count = 2;
  options.quantum_us = 1000.0;
  const bool traced = BenchTraceEnabled();
  if (traced) {
    options.trace_buffer_capacity = std::size_t{1} << 16;
  }
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) {};
  Runtime runtime(options, callbacks);
  runtime.Start();
  std::unique_ptr<trace::FlightRecorder> flight;
  if (BenchFlightEnabled()) {
    trace::FlightRecorderOptions flight_options;  // all triggers default-off
    flight_options.dump_path = "/tmp/concord_bench_flight.trace.json";
    flight_options.quantum_us = options.quantum_us;
    flight = std::make_unique<trace::FlightRecorder>(flight_options);
  }
  std::unique_ptr<trace::MetricsSampler> sampler;
  if (traced || flight != nullptr) {
    sampler = std::make_unique<trace::MetricsSampler>(
        trace::MetricsSampler::Options{}, [&runtime] { return runtime.GetTelemetry(); },
        flight.get());
    sampler->Start();
  }
  std::uint64_t id = 0;
  // Driver loop on the bench thread, not handler code. concord-lint: allow-no-probe
  for (auto _ : state) {
    while (!runtime.Submit(id, 0, nullptr)) {
      std::this_thread::yield();
    }
    ++id;
    if (id % 64 == 0) {
      runtime.WaitIdle();
    }
  }
  runtime.WaitIdle();
  if (sampler != nullptr) {
    sampler->Stop();
  }
  runtime.Shutdown();
  state.SetItemsProcessed(static_cast<std::int64_t>(id));
}
BENCHMARK(BM_PipelinedThroughput);

void BM_SpinWithProbes1us(benchmark::State& state) {
  for (auto _ : state) {
    SpinWithProbesUs(1.0);
  }
}
BENCHMARK(BM_SpinWithProbes1us);

void BM_GuardedMutexLockUnlock(benchmark::State& state) {
  GuardedMutex mu;
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(PreemptionDisabled());
    mu.unlock();
  }
}
BENCHMARK(BM_GuardedMutexLockUnlock);

void BM_TelemetryEventRingPush(benchmark::State& state) {
  // The per-completion cost a worker pays to publish a lifecycle record.
  telemetry::EventRing<telemetry::RequestLifecycle> ring(256);
  telemetry::RequestLifecycle lifecycle;
  lifecycle.id = 1;
  for (auto _ : state) {
    ring.Push(lifecycle);
    benchmark::DoNotOptimize(ring.produced());
  }
}
BENCHMARK(BM_TelemetryEventRingPush);

void BM_TelemetrySnapshot(benchmark::State& state) {
  // Cost of GetTelemetry() against a live runtime (cold path; called by
  // monitoring, not by the request path).
  Runtime::Options options;
  options.worker_count = 1;
  options.quantum_us = 1000.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) {};
  Runtime runtime(options, callbacks);
  runtime.Start();
  // Monitoring-path measurement, not handler code. concord-lint: allow-no-probe
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.GetTelemetry());
  }
  runtime.Shutdown();
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace
}  // namespace concord

namespace concord {

// --json-out=FILE / CONCORD_BENCH_JSON_OUT: machine-readable perf summary
// for the CI perf-smoke artifact. Runs two dedicated workloads after the
// google-benchmark pass (their console numbers are not machine-parsed):
//
//   pipelined_throughput — the BM_PipelinedThroughput shape (2 workers,
//     no-op handler, 64-deep submit window) run `repetitions` times; the
//     JSON reports the median so one noisy rep on a shared host does not
//     gate CI.
//   slowdown — the RunExportWorkload spin mix (90% 5us / 10% 100us,
//     q=20us, jbsq=2) with per-request slowdown recorded from
//     on_complete; reports p50/p99/p99.9.
// One pipelined-throughput measurement pass: `repetitions` timed reps of
// `request_count` no-op requests through a 64-deep submit window, on
// `shard_count` shards under `policy`, preceded by `warmup_reps` whole
// discarded reps (cold-start effects — first-fault of the request slabs,
// fiber-stack allocation, branch warmup — land there instead of skewing the
// committed median). `cpus` seats the shards via a topology PlacementPlan
// when non-empty; `pinned_out` (optional) reports whether the plan pinned.
// Returns the median items/s over the timed reps.
double MeasurePipelinedThroughput(std::size_t request_count, int repetitions, int warmup_reps,
                                  PolicyKind policy, int shard_count, ShardPlacement placement,
                                  // concord-lint: allow-no-probe (bench driver, main thread)
                                  const std::vector<int>& cpus, bool* pinned_out = nullptr) {
  std::vector<double> items_per_sec;
  items_per_sec.reserve(static_cast<std::size_t>(repetitions));
  // concord-lint: allow-no-probe (bench driver loop on the main thread, not handler code)
  for (int rep = 0; rep < warmup_reps + repetitions; ++rep) {
    ShardedRuntime::Options options;
    options.shard.worker_count = 2;
    options.shard.quantum_us = 1000.0;
    options.shard.policy = policy;
    options.shard_count = shard_count;
    options.placement = placement;
    options.allowed_cpus = cpus;
    Runtime::Callbacks callbacks;
    callbacks.handle_request = [](const RequestView&) {};
    ShardedRuntime runtime(options, callbacks);
    if (pinned_out != nullptr) {
      *pinned_out = runtime.placement_plan().pinned;
    }
    runtime.Start();
    // Untimed intra-rep warmup: populate the fiber pools, ring pages and
    // producer slots before the clock starts (google-benchmark's calibration
    // runs do the same for BM_PipelinedThroughput, keeping the numbers
    // comparable).
    const std::size_t warmup = std::min<std::size_t>(request_count / 10, 10000);
    // Driver loop on the main thread, not handler code. concord-lint: allow-no-probe
    for (std::size_t id = 0; id < warmup; ++id) {
      while (!runtime.Submit(static_cast<std::uint64_t>(id), 0, nullptr)) {
        std::this_thread::yield();
      }
      if ((id + 1) % 64 == 0) {
        runtime.WaitIdle();
      }
    }
    runtime.WaitIdle();
    const auto start = std::chrono::steady_clock::now();
    // Driver loop on the main thread, not handler code. concord-lint: allow-no-probe
    for (std::size_t id = 0; id < request_count; ++id) {
      while (!runtime.Submit(static_cast<std::uint64_t>(id), 0, nullptr)) {
        std::this_thread::yield();
      }
      if ((id + 1) % 64 == 0) {
        runtime.WaitIdle();
      }
    }
    runtime.WaitIdle();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    runtime.Shutdown();
    if (rep < warmup_reps) {
      continue;  // whole-rep warmup: measured, discarded
    }
    items_per_sec.push_back(elapsed_s > 0.0 ? static_cast<double>(request_count) / elapsed_s
                                            : 0.0);
  }
  std::sort(items_per_sec.begin(), items_per_sec.end());
  return items_per_sec[items_per_sec.size() / 2];
}

// concord-lint: allow-no-probe (bench harness; drives the runtime from the main thread)
int RunJsonBench(const std::string& json_out, int argc, char** argv) {
  // Sized so fixed per-rep costs (Start/WaitIdle edges) stay under ~1% of
  // the timed window; below ~100k they visibly inflate ns_per_op.
  const auto request_count = static_cast<std::size_t>(std::max<long long>(
      1, telemetry::IntFromFlagOrEnv(argc, argv, "--requests=", "CONCORD_BENCH_REQUESTS",
                                     400000)));
  const RuntimeSelection selection = SelectionFromArgsOrEnv(argc, argv);
  constexpr int kRepetitions = 5;
  // Whole discarded reps before the timed ones (--warmup-reps= /
  // CONCORD_WARMUP_REPS, default 1): slab first-fault, fiber-pool and
  // branch-predictor warmup land outside the committed median.
  const int warmup_reps = static_cast<int>(std::max<long long>(
      0, telemetry::IntFromFlagOrEnv(argc, argv, "--warmup-reps=", "CONCORD_WARMUP_REPS", 1)));

  bool pinned = false;
  const double median_items_per_sec = MeasurePipelinedThroughput(
      request_count, kRepetitions, warmup_reps, selection.policy, selection.shard_count,
      selection.placement, selection.cpus, &pinned);
  const double median_ns_per_op =
      median_items_per_sec > 0.0 ? 1.0e9 / median_items_per_sec : 0.0;
  // The inter-shard scaling data point for the committed artifact: when the
  // selected run is the default single shard, also measure 2 shards so one
  // run yields the comparison (on hosts with enough cores, 2 shards should
  // clear 1.3x; on small hosts the numbers record the oversubscription
  // honestly).
  double two_shard_items_per_sec = 0.0;
  bool two_shard_pinned = false;
  if (selection.shard_count == 1) {
    two_shard_items_per_sec = MeasurePipelinedThroughput(
        request_count, kRepetitions, warmup_reps, selection.policy, 2, selection.placement,
        selection.cpus, &two_shard_pinned);
  }

  SlowdownTracker tracker;
  std::uint64_t slowdown_completed = 0;
  {
    ShardedRuntime::Options options;
    options.shard.worker_count = 2;
    options.shard.quantum_us = 20.0;
    options.shard.jbsq_depth = 2;
    options.shard.policy = selection.policy;
    options.shard_count = selection.shard_count;
    options.placement = selection.placement;
    options.allowed_cpus = selection.cpus;
    std::mutex complete_mu;  // with shards > 1 every shard's dispatcher completes here
    Runtime::Callbacks callbacks;
    callbacks.handle_request = [](const RequestView& view) {
      SpinWithProbesUs(view.request_class == 1 ? 100.0 : 5.0);
    };
    // Written once after Start() and before the first Submit; the ring's
    // release/acquire hand-off orders it before any on_complete read.
    double tsc_ghz = 1.0;
    callbacks.on_complete = [&tracker, &slowdown_completed, &tsc_ghz, &complete_mu](
                                const RequestView& view, std::uint64_t latency_tsc) {
      const double latency_ns = static_cast<double>(latency_tsc) / tsc_ghz;
      const double service_ns = view.request_class == 1 ? 100000.0 : 5000.0;
      std::lock_guard<std::mutex> lock(complete_mu);
      ++slowdown_completed;
      tracker.Record(latency_ns, service_ns, view.request_class);
    };
    ShardedRuntime slowdown_runtime(options, callbacks);
    slowdown_runtime.Start();
    tsc_ghz = slowdown_runtime.tsc_ghz();
    const std::size_t slowdown_requests = std::min<std::size_t>(request_count, 12000);
    // Open-loop pacing at a 40us inter-arrival gap (~25 krps against a
    // 14.5us mean service demand): without pacing the unbounded central
    // queue grows for the whole run and the percentiles measure run length
    // instead of scheduling.
    constexpr double kGapNs = 40000.0;
    const auto pace_start = std::chrono::steady_clock::now();
    // Driver loop on the main thread, not handler code. concord-lint: allow-no-probe
    for (std::size_t i = 0; i < slowdown_requests; ++i) {
      const double due_ns = static_cast<double>(i) * kGapNs;
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
      const int request_class = i % 10 == 9 ? 1 : 0;
      while (!slowdown_runtime.Submit(static_cast<std::uint64_t>(i), request_class, nullptr)) {
        std::this_thread::yield();
      }
    }
    slowdown_runtime.WaitIdle();
    slowdown_runtime.Shutdown();
  }

  // --duration-s= / CONCORD_BENCH_DURATION_S (> 0): additionally run an
  // open-loop, time-bounded workload at --offered-krps= (default 25) through
  // the shared OpenLoopLoadgen::RunFor harness — the same time-bounded mode
  // net_loadgen uses against a live server — and report achieved vs offered
  // rate. 0 (the default) keeps the bench count-bounded only.
  const auto duration_s = static_cast<double>(std::max<long long>(
      0, telemetry::IntFromFlagOrEnv(argc, argv, "--duration-s=", "CONCORD_BENCH_DURATION_S", 0)));
  const auto offered_krps = static_cast<double>(std::max<long long>(
      1, telemetry::IntFromFlagOrEnv(argc, argv, "--offered-krps=",
                                     "CONCORD_BENCH_OFFERED_KRPS", 25)));
  LoadgenReport open_loop;
  if (duration_s > 0.0) {
    // Same mix as the count-bounded slowdown workload above: 90% 5us / 10%
    // 100us, so the two blocks are directly comparable.
    const std::unique_ptr<DiscreteMixtureDistribution> mix = MakeBimodal(90.0, 5.0, 10.0, 100.0);
    OpenLoopLoadgen loadgen(*mix, {5.0, 100.0}, /*seed=*/42);
    ShardedRuntime::Options options;
    options.shard.worker_count = 2;
    options.shard.quantum_us = 20.0;
    options.shard.jbsq_depth = 2;
    options.shard.policy = selection.policy;
    options.shard_count = selection.shard_count;
    options.placement = selection.placement;
    options.allowed_cpus = selection.cpus;
    Runtime::Callbacks callbacks;
    callbacks.handle_request = [](const RequestView& view) {
      SpinWithProbesUs(view.request_class == 1 ? 100.0 : 5.0);
    };
    callbacks.on_complete = loadgen.LockedCompletionHook();
    ShardedRuntime runtime(options, callbacks);
    runtime.Start();
    open_loop = loadgen.RunFor(&runtime, offered_krps, duration_s);
    runtime.Shutdown();
  }

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n";
  json << "  \"benchmark\": \"micro_runtime\",\n";
  json << "  \"policy\": \"" << PolicyKindName(selection.policy) << "\",\n";
  json << "  \"shards\": " << selection.shard_count << ",\n";
  json << "  \"placement\": \"" << ShardPlacementName(selection.placement) << "\",\n";
  json << "  \"pinned\": " << (pinned ? "true" : "false") << ",\n";
  // Host shape at record time: scaling_model reads this so calibration stays
  // tied to the machine that produced the numbers, not whoever reruns it.
  json << "  \"host_cpus\": " << Topology::Discover().CpuCount() << ",\n";
  json << "  \"pipelined_throughput\": {\n";
  json << "    \"requests_per_rep\": " << request_count << ",\n";
  json << "    \"repetitions\": " << kRepetitions << ",\n";
  json << "    \"warmup_reps\": " << warmup_reps << ",\n";
  json << "    \"median_items_per_sec\": " << median_items_per_sec << ",\n";
  json << "    \"median_ns_per_op\": " << median_ns_per_op << "\n";
  json << "  },\n";
  if (two_shard_items_per_sec > 0.0) {
    json << "  \"pipelined_throughput_2shard\": {\n";
    json << "    \"pinned\": " << (two_shard_pinned ? "true" : "false") << ",\n";
    json << "    \"median_items_per_sec\": " << two_shard_items_per_sec << ",\n";
    json << "    \"median_ns_per_op\": " << 1.0e9 / two_shard_items_per_sec << ",\n";
    json << "    \"vs_single_shard\": "
         << (median_items_per_sec > 0.0 ? two_shard_items_per_sec / median_items_per_sec : 0.0)
         << "\n";
    json << "  },\n";
  }
  json << "  \"slowdown\": {\n";
  json << "    \"completed\": " << slowdown_completed << ",\n";
  json << "    \"p50\": " << tracker.QuantileSlowdown(0.50) << ",\n";
  json << "    \"p99\": " << tracker.QuantileSlowdown(0.99) << ",\n";
  json << "    \"p999\": " << tracker.P999Slowdown() << "\n";
  json << "  }";
  if (duration_s > 0.0) {
    json << ",\n  \"open_loop\": {\n";
    json << "    \"duration_s\": " << duration_s << ",\n";
    json << "    \"offered_krps\": " << open_loop.offered_krps << ",\n";
    json << "    \"achieved_krps\": " << open_loop.achieved_krps << ",\n";
    json << "    \"achieved_vs_offered\": "
         << (open_loop.offered_krps > 0.0 ? open_loop.achieved_krps / open_loop.offered_krps
                                          : 0.0)
         << ",\n";
    json << "    \"issued\": " << open_loop.issued << ",\n";
    json << "    \"dropped\": " << open_loop.dropped << ",\n";
    json << "    \"completed\": " << open_loop.completed << ",\n";
    json << "    \"p50\": " << open_loop.p50_slowdown << ",\n";
    json << "    \"p99\": " << open_loop.p99_slowdown << ",\n";
    json << "    \"p999\": " << open_loop.p999_slowdown << "\n";
    json << "  }";
  }
  // Optional reference block so a committed artifact can carry the pre-change
  // numbers it is being compared against (set by whoever records the run).
  const char* baseline_items = std::getenv("CONCORD_BENCH_BASELINE_ITEMS_PER_SEC");
  if (baseline_items != nullptr) {
    json << ",\n  \"baseline\": {\n";
    json << "    \"median_items_per_sec\": " << std::atof(baseline_items);
    if (const char* baseline_ns = std::getenv("CONCORD_BENCH_BASELINE_NS_PER_OP")) {
      json << ",\n    \"median_ns_per_op\": " << std::atof(baseline_ns);
    }
    if (const char* baseline_commit = std::getenv("CONCORD_BENCH_BASELINE_COMMIT")) {
      json << ",\n    \"commit\": \"" << baseline_commit << "\"";
    }
    json << "\n  }";
  }
  json << "\n}\n";
  return telemetry::WriteTextFile(json.str(), json_out, "bench json") ? 0 : 1;
}

// --deadline-us=A[,B,...] / CONCORD_DEADLINE_US: per-class relative deadlines
// in microseconds for the export workload (entry c applies to class c; <= 0
// or missing means no deadline). With --policy=edf this makes the exported
// trace exercise the analyzer's EDF dispatch-ordering check.
std::vector<double> DeadlinesFromArgsOrEnv(int argc, char** argv) {
  const std::string spec =
      telemetry::OutPathFromFlagOrEnv(argc, argv, "--deadline-us=", "CONCORD_DEADLINE_US");
  std::vector<double> deadline_us;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    deadline_us.push_back(std::atof(item.c_str()));
  }
  return deadline_us;
}

// Post-benchmark export workload behind --telemetry-out= / --trace-out= /
// --metrics-out=: a mixed short/long spin mix (90% 5us, 10% 100us at
// q=20us) that exercises preemption signals, co-op yields, JBSQ
// re-dispatch and dispatcher adoption, sized to span several 10 ms metrics
// windows. CI feeds the resulting trace and series to concord_trace --check.
// concord-lint: allow-no-probe (bench harness; drives the runtime from the main thread)
int RunExportWorkload(int argc, char** argv) {
  const std::string telemetry_out = telemetry::TelemetryOutPath(argc, argv);
  const std::string trace_out = telemetry::TraceOutPath(argc, argv);
  const std::string metrics_out = telemetry::MetricsOutPath(argc, argv);

  // ~90ms of work on two workers at the default count.
  const auto request_count = static_cast<std::size_t>(std::max<long long>(
      1, telemetry::IntFromFlagOrEnv(argc, argv, "--requests=", "CONCORD_BENCH_REQUESTS", 12000)));
  const RuntimeSelection selection = SelectionFromArgsOrEnv(argc, argv);

  ShardedRuntime::Options options;
  options.shard.worker_count = 2;
  options.shard.quantum_us = 20.0;
  options.shard.jbsq_depth = 2;
  options.shard.policy = selection.policy;
  options.shard_count = selection.shard_count;
  options.placement = selection.placement;
  options.allowed_cpus = selection.cpus;
  if (!trace_out.empty()) {
    // Sized for zero drops at the default request count; any overflow is
    // exactly counted and surfaced by the analyzer.
    options.shard.trace_buffer_capacity = std::size_t{1} << 17;
  }
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView& view) {
    SpinWithProbesUs(view.request_class == 1 ? 100.0 : 5.0);
  };
  ShardedRuntime runtime(options, callbacks);
  runtime.Start();
  std::unique_ptr<trace::MetricsSampler> sampler;
  if (!metrics_out.empty()) {
    sampler = trace::StartMetricsSampler(argc, argv, metrics_out,
                                         [&runtime] { return runtime.GetTelemetry(); });
  }
  const std::vector<double> deadline_us = DeadlinesFromArgsOrEnv(argc, argv);
  // Driver loop on the main thread, not handler code. concord-lint: allow-no-probe
  for (std::size_t i = 0; i < request_count; ++i) {
    const int request_class = i % 10 == 9 ? 1 : 0;
    const double deadline = static_cast<std::size_t>(request_class) < deadline_us.size()
                                ? deadline_us[static_cast<std::size_t>(request_class)]
                                : 0.0;
    const auto id = static_cast<std::uint64_t>(i);
    while (!(deadline > 0.0 ? runtime.Submit(id, request_class, nullptr, deadline)
                            : runtime.Submit(id, request_class, nullptr))) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  const telemetry::TelemetrySnapshot snapshot = runtime.GetTelemetry();
  bool ok = true;
  if (sampler != nullptr) {
    ok = sampler->StopAndWriteSeries(metrics_out) && ok;  // flushes the final window
  }
  runtime.Shutdown();
  if (!trace_out.empty()) {
    // Post-Shutdown: every dispatcher's final ring drain has run. One file
    // per shard ("out.json" -> "out.shard1.json"...), each independently
    // checkable by concord_trace; single-shard keeps the plain path.
    for (int s = 0; s < runtime.shard_count(); ++s) {
      ok = trace::WriteChromeTrace(runtime.GetShardTrace(s),
                                   telemetry::ShardedOutPath(trace_out, s,
                                                             runtime.shard_count())) &&
           ok;
    }
  }
  if (!telemetry_out.empty()) {
    ok = telemetry::WriteSnapshotJson(snapshot, telemetry_out) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace concord

// BENCHMARK_MAIN, plus the shared observability flags: after the benchmarks
// run, any of --telemetry-out= / --trace-out= / --metrics-out= (or their
// CONCORD_*_OUT envs) drives one instrumented workload and exports the
// requested artifacts. The CI overhead smoke compares BM_PipelinedThroughput
// between CONCORD_TELEMETRY ON and OFF builds (and, with
// CONCORD_BENCH_TRACE=1, with tracing + sampling live).
// concord-lint: allow-no-probe (bench entry point: flag filtering + harness calls)
int main(int argc, char** argv) {
  const bool want_export = !concord::telemetry::TelemetryOutPath(argc, argv).empty() ||
                           !concord::telemetry::TraceOutPath(argc, argv).empty() ||
                           !concord::telemetry::MetricsOutPath(argc, argv).empty();
  const std::string json_out =
      concord::telemetry::OutPathFromFlagOrEnv(argc, argv, "--json-out=", "CONCORD_BENCH_JSON_OUT");
  std::vector<char*> bench_args;  // benchmark::Initialize rejects foreign flags
  // concord-lint: allow-no-probe (flag filtering in main, not handler code)
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0 ||
        std::strncmp(argv[i], "--trace-out=", 12) == 0 ||
        std::strncmp(argv[i], "--metrics-out=", 14) == 0 ||
        std::strncmp(argv[i], "--metrics-window-ms=", 20) == 0 ||
        std::strncmp(argv[i], "--json-out=", 11) == 0 ||
        std::strncmp(argv[i], "--policy=", 9) == 0 ||
        std::strncmp(argv[i], "--shards=", 9) == 0 ||
        std::strncmp(argv[i], "--placement=", 12) == 0 ||
        std::strncmp(argv[i], "--deadline-us=", 14) == 0 ||
        std::strncmp(argv[i], "--requests=", 11) == 0 ||
        std::strncmp(argv[i], "--cpus=", 7) == 0 ||
        std::strncmp(argv[i], "--warmup-reps=", 14) == 0 ||
        std::strncmp(argv[i], "--duration-s=", 13) == 0 ||
        std::strncmp(argv[i], "--offered-krps=", 15) == 0) {
      continue;
    }
    bench_args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int status = 0;
  if (want_export) {
    status = concord::RunExportWorkload(argc, argv);
  }
  if (!json_out.empty()) {
    const int json_status = concord::RunJsonBench(json_out, argc, argv);
    status = status != 0 ? status : json_status;
  }
  return status;
}
