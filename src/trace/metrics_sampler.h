// MetricsSampler: windowed time-series metrics from telemetry snapshot diffs
// (docs/tracing.md). It is the one thread that polls telemetry.
//
// A background thread samples a TelemetrySnapshot provider on a fixed window
// (default 10 ms), diffs consecutive snapshots, and appends one MetricsWindow
// per tick to a bounded series (drop-oldest, counted). Window completion
// counts come from the exact runtime counters, so as long as no window is
// evicted, the per-window `completed` values sum to precisely the run's
// completed-request total — the property the CI trace job asserts to 1%.
//
// Slowdown quantiles are computed from the lifecycles newly appended to the
// telemetry history during the window (identified exactly by the monotone
// append counters, not by timestamps). A request's slowdown is exact:
// (complete_tsc - arrival_tsc) / service_tsc, the latency anatomy's
// end-to-end latency over its service stage (anatomy.h), floored at 1.
//
// An optional FlightRecorder subscribes: every window, and the fresh
// lifecycles it was computed from, is handed to the recorder, which keeps
// its dump ring and evaluates its triggers without a thread or a snapshot of
// its own. Stop()'s final flush reaches the recorder too.
//
// The sampler never touches the runtime's hot paths: it only reads the same
// counters GetTelemetry() exposes, from its own thread.

#ifndef CONCORD_SRC_TRACE_METRICS_SAMPLER_H_
#define CONCORD_SRC_TRACE_METRICS_SAMPLER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/json.h"
#include "src/telemetry/telemetry.h"

namespace concord::trace {

class FlightRecorder;

inline constexpr char kMetricsSchema[] = "concord.metrics.v1";

struct MetricsWindow {
  double start_ms = 0.0;     // since sampler start
  double duration_ms = 0.0;  // measured, not nominal
  std::uint64_t completed = 0;
  double throughput_rps = 0.0;
  // Slowdown quantiles over the window's completed lifecycles (0 when none).
  double slowdown_p50 = 0.0;
  double slowdown_p99 = 0.0;
  double slowdown_p999 = 0.0;
  std::uint64_t slowdown_samples = 0;
  std::uint64_t preempt_signals = 0;     // preemptions requested this window
  std::uint64_t preempt_yields = 0;      // preemptions honored this window
  std::uint64_t dispatcher_quanta = 0;   // work-conserving quanta this window
  std::uint64_t ring_dropped = 0;        // telemetry events lost this window
  std::uint64_t ingress_rejected = 0;    // backpressured Submit() calls
  std::uint64_t negative_slack_dispatches = 0;  // dispatched at/after deadline
  std::uint64_t deadline_dispatches = 0;        // deadline-carrying dispatches
  std::vector<std::uint64_t> jbsq_pushes;   // per worker, this window
  std::vector<std::uint64_t> max_inflight;  // per worker, running high-water (<= k)
};

// One window as a concord.metrics.v1 series entry (also /flightz's
// last_window).
telemetry::JsonValue MetricsWindowJson(const MetricsWindow& window);

class MetricsSampler {
 public:
  struct Options {
    double window_ms = 10.0;
    std::size_t series_capacity = 4096;  // windows kept; oldest dropped, counted
    // When set, the full Prometheus exposition is rewritten atomically
    // (write-to-temp + rename) after every window.
    std::string exposition_path;
  };

  using SnapshotFn = std::function<telemetry::TelemetrySnapshot()>;

  // `recorder`, when set, receives every window and must outlive the sampler.
  MetricsSampler(Options options, SnapshotFn snapshot, FlightRecorder* recorder = nullptr);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  // Takes the baseline snapshot, arms the recorder and launches the sampling
  // thread.
  void Start();

  // Flushes one final (partial) window, joins the thread and disarms the
  // recorder, so the series covers the run end to end. Idempotent.
  void Stop();

  // Stop(), then WriteSeries(path) unless `path` is empty; false on I/O
  // failure.
  bool StopAndWriteSeries(const std::string& path);

  std::vector<MetricsWindow> Windows() const;
  std::uint64_t dropped_windows() const;
  // Lifecycles that were evicted from the telemetry history before the
  // sampler could score them (bounds slowdown-sample loss; completion counts
  // are unaffected).
  std::uint64_t missed_lifecycles() const;

  // JSON time series (schema concord.metrics.v1).
  std::string ToJsonSeries() const;
  // Prometheus text exposition: run totals plus the latest window.
  std::string ToPrometheusText() const;

  // Writes ToJsonSeries() to `path` ("-" = stdout); false on I/O failure.
  bool WriteSeries(const std::string& path) const;

 private:
  void Loop(std::stop_token stop);
  void SampleWindow();

  const Options options_;
  const SnapshotFn snapshot_fn_;
  FlightRecorder* const recorder_;

  bool started_ = false;

  // Sampling state, touched only by the sampler thread (and by Stop() for
  // the final flush, after the thread has joined).
  telemetry::TelemetrySnapshot previous_;
  std::uint64_t previous_appends_ = 0;
  double window_start_ms_ = 0.0;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex series_mu_;  // guards the series and its counters
  std::deque<MetricsWindow> series_;
  std::uint64_t dropped_windows_ = 0;
  std::uint64_t missed_lifecycles_ = 0;

  // Last, so it is destroyed (and joined) before the state it samples into.
  std::jthread thread_;
};

// The --metrics-out= wiring the bench and example binaries share: a started
// sampler over `snapshot` whose window comes from --metrics-window-ms=
// (telemetry::MetricsWindowMs) and whose Prometheus exposition is rewritten
// at `<metrics_out>.prom` unless `metrics_out` is empty or "-". Finish with
// StopAndWriteSeries(metrics_out).
std::unique_ptr<MetricsSampler> StartMetricsSampler(int argc, char** argv,
                                                    const std::string& metrics_out,
                                                    MetricsSampler::SnapshotFn snapshot,
                                                    FlightRecorder* recorder = nullptr);

}  // namespace concord::trace

#endif  // CONCORD_SRC_TRACE_METRICS_SAMPLER_H_
