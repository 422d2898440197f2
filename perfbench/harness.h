// Shared pieces of the perfbench binary: run configuration, the result a
// workload hands back, per-sub-window client figures, spans, host
// diagnostics and the fixed-work synthetic handler body.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/histogram.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

// Faults the self-test injects to prove the correctness checks can fail.
enum class Fault {
  kNone,
  kShortWork,       // bimodal handler does half the iterations
  kDropCompletion,  // on_complete swallows one completion
  kSkipPut,         // kv handler acknowledges PUTs without applying them
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  Fault fault = Fault::kNone;
  // Setups per run; setup_s is their median.
  int setup_repeats = 9;
  // fixed_work::MeasureRate() of this run, reported as host.work_rate.
  double host_work_rate = 0.0;
};

// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Human-readable reasons for every failed correctness check.
  std::vector<std::string> violations;
  // Requests whose spans did not partition their client-observed latency
  // (traced runs only).
  std::uint64_t partition_violations = 0;
  std::uint64_t partition_checked = 0;
  double throughput_rps = 0.0;
  // Client-observed p99, reported ungated beside the per-layer metrics.
  double latency_p99_us = 0.0;
  // Share of the measured window in which no request completed for longer
  // than ClientWindows::kStallSeconds.
  double stall_share = 0.0;
  double setup_s = 0.0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Diagnostics printed beside the metrics (sample counts, pinning, ...).
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(const std::string& why, std::uint64_t count = 1);
  bool correct() const { return violations.empty() && partition_violations == 0; }
};

// Warm-up before the measured window, and how long the generator waits
// for outstanding requests after it before counting them lost.
double WarmupSeconds(double seconds);
inline constexpr double kDrainSeconds = 2.0;

// Lower median (nearest rank) of a few values; 0 if empty.
double Median(std::vector<double> values);

// /proc/stat steal share between two points in time.
class StealMeter {
 public:
  StealMeter() { Restart(); }
  void Restart() { Sample(&steal_, &total_); }
  double StealRatioSinceStart() const;

 private:
  static void Sample(std::uint64_t* steal, std::uint64_t* total);
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

// Client-observed throughput and latency over the measured window, cut into
// fixed sub-windows. Each end-to-end figure is the median of that
// sub-window's value over the sub-windows whose host steal (/proc/stat) is
// at most the first decile's, so the hypervisor taking a vCPU away for
// milliseconds (common on shared hosts) moves a few sub-windows, not the
// run. Only host evidence drops a sub-window: throughput is completions
// over the sub-window's wall time, so a stall of the program itself counts
// in full.
class ClientWindows {
 public:
  static constexpr double kWindowSeconds = 0.05;
  static constexpr double kStallSeconds = 1e-3;

  // `demand_us`: each class's declared demand, the slowdown denominator.
  // `latency_classes`: the classes the latency figures cover.
  ClientWindows(std::uint64_t w0_tsc, double seconds, std::vector<double> demand_us,
                std::vector<bool> latency_classes);
  // Samples the host steal share once a sub-window has ended. The client
  // loop calls it on every pass, busy or idle.
  void Tick(std::uint64_t now);
  // A completion seen at t_seen (counted for throughput when in the window).
  void Complete(std::uint64_t t_seen);
  // A request sent at t_send (in the window) with its latency.
  void Add(std::uint64_t t_send, std::size_t request_class, double us);
  // Sets throughput_rps, latency_p99_us and stall_share, and pushes
  // latency_p50/p90_us and slowdown_p50/p90.
  void Report(WorkloadResult* result) const;

 private:
  std::size_t WindowOf(std::uint64_t tsc) const;

  std::uint64_t w0_tsc_;
  std::uint64_t window_tsc_;
  std::uint64_t stall_tsc_;
  std::vector<double> demand_us_;
  std::vector<bool> latency_classes_;
  std::vector<std::uint64_t> completions_;
  std::vector<concord::Histogram> latency_;
  std::vector<concord::Histogram> slowdown_;
  // Per class over the whole window, for the diagnostic lines.
  std::vector<concord::Histogram> by_class_;
  // Time in which no request completed for longer than kStallSeconds; a
  // diagnostic (client.stall_share), not taken out of any figure.
  std::uint64_t stalled_tsc_ = 0;
  std::uint64_t last_completion_tsc_ = 0;
  // Host steal share per sub-window; sub-windows [0, steal_sampled_) have
  // been sampled. A sample covers every sub-window that ended since the
  // previous one.
  std::vector<double> steal_;
  std::size_t steal_sampled_ = 0;
  std::uint64_t next_boundary_tsc_;
  StealMeter steal_meter_;
};

// Spans recorded in a traced run, by name. Each request's stamps must be
// non-decreasing, so its spans tile its client-observed latency exactly.
enum class Span {
  kSubmitNs,           // generator: Submit call (ns)
  kDispatchWait,       // Submit return -> handler entry
  kRunC0,              // handler entry -> exit, class 0
  kRunC1,              // handler entry -> exit, class 1
  kCompletionWait,     // handler exit -> on_complete
  kPickup,             // on_complete -> generator sees the completion
  kNetSend,            // client send() call
  kNetInbound,         // send() return -> handler entry
  kNetOutbound,        // on_complete -> client recv() return
  kNetWire,            // round trip minus the server-echoed latency
  kKvGet,              // Db::Get inside the handler
  kKvPut,              // Db::Put inside the handler
  kCount,
};

class SpanSet {
 public:
  SpanSet() : spans_(static_cast<std::size_t>(Span::kCount)) {}
  void Add(Span span, double value) { spans_[static_cast<std::size_t>(span)].Record(value); }
  double Quantile(Span span, double q) const {
    return spans_[static_cast<std::size_t>(span)].Quantile(q);
  }
  // Checks that `stamps` never decrease; counts the check in `result`.
  template <std::size_t N>
  bool CheckPartition(const std::uint64_t (&stamps)[N], WorkloadResult* result) {
    ++result->partition_checked;
    for (std::size_t i = 1; i < N; ++i) {
      if (stamps[i] < stamps[i - 1]) {
        ++result->partition_violations;
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<concord::Histogram> spans_;
};

// Counter-derived per-layer inputs (telemetry and /proc diffs).
struct RuntimeCounters {
  // The runtime's counters between two GetTelemetry() snapshots.
  static RuntimeCounters FromTelemetry(const concord::telemetry::TelemetrySnapshot& before,
                                       const concord::telemetry::TelemetrySnapshot& after);

  double ingress_rejected = 0.0;
  double preempt_per_req = 0.0;
  double preempt_honored_ratio = 0.0;
  double self_run_share = 0.0;
  double long_demand_us = 0.0;  // 0: no long class
  double steal_ratio = 0.0;
  double work_rate = 0.0;
};
struct NetCounters {
  double loop_cpu_us_per_req = 0.0;
  double loop_sys_share = 0.0;
  double loop_wakeups_per_req = 0.0;
  double rejects_busy = 0.0;
  double rejects_backpressure = 0.0;
};

// Fills result->per_layer with every per-layer metric, in BENCHMARK.json
// order (0 where a layer is not on the workload's path).
void ReportPerLayer(const SpanSet& spans, const RuntimeCounters& runtime, const NetCounters& net,
                    WorkloadResult* result);

// Ids seen exactly once: Mark returns false on a duplicate.
class ExactlyOnce {
 public:
  bool Mark(std::uint64_t id);
  bool Seen(std::uint64_t id) const;

 private:
  std::vector<std::uint64_t> bits_;
};

// Linux thread ids of this process, for finding a thread a library spawned.
std::vector<int> ThreadIds();

// Per-thread CPU accounting from /proc/self/task/<tid>.
struct ThreadCpu {
  std::uint64_t cpu_ns = 0;        // schedstat on-CPU time
  std::uint64_t user_ticks = 0;    // stat utime
  std::uint64_t system_ticks = 0;  // stat stime
  std::uint64_t voluntary_switches = 0;
  static ThreadCpu Read(int tid);
};

// TSC frequency for converting stamps: the runtime's own calibration
// (ShardedRuntime::tsc_ghz()), which each workload hands over after Start().
void SetTscGhz(double ghz);
double TscGhz();

// Fixed-work synthetic handler body: a dependent integer chain with a probe
// every kProbeEvery iterations (about 400 instructions, above the paper's
// 200-instruction placement rule). It stops on an iteration count, not on
// wall-clock time, so a preempted request still does all of its work, and
// the returned checksum proves it.
namespace fixed_work {

inline constexpr std::uint64_t kProbeEvery = 64;

// Iterations per microsecond, calibrated once on the reference host (a
// 4-vCPU Sapphire Rapids KVM guest). That host's clock steps between about
// 365 and 432 iterations/us every few hundred milliseconds, so calibrating
// in each run would sample one step and move the work, and with it the
// bimodal throughput, by up to 8% between runs; 400 is the mean.
inline constexpr double kIterationsPerUs = 400.0;

inline std::uint64_t IterationsFor(double us) {
  return static_cast<std::uint64_t>(us * kIterationsPerUs + 0.5);
}

std::uint64_t Run(std::uint64_t iterations, std::uint64_t seed);

// This host's current rate (median of short trials over ~0.2 s), reported
// beside each run so a slow or fast host phase can be told from a
// regression.
double MeasureRate();

}  // namespace fixed_work

double TscToUs(std::uint64_t ticks);

// The workloads (inprocess.cc, kv_wire.cc).
struct InProcessSpec {
  int workers = 2;
  int outstanding = 8;
  bool bimodal = true;  // false: empty handler
};
WorkloadResult RunInProcess(const InProcessSpec& spec, const RunConfig& config);
WorkloadResult RunKvWire(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
