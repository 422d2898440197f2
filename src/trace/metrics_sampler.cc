#include "src/trace/metrics_sampler.h"

#include <algorithm>
#include <condition_variable>
#include <span>
#include <utility>

#include "src/common/logging.h"
#include "src/stats/histogram.h"
#include "src/telemetry/export.h"
#include "src/telemetry/json.h"
#include "src/trace/flight_recorder.h"

namespace concord::trace {

namespace {

using telemetry::JsonValue;
using telemetry::RequestLifecycle;
using telemetry::TelemetrySnapshot;

// Monotone count of lifecycles ever appended to the telemetry history:
// worker completions arrive via ring drains (events_drained), dispatcher
// completions are appended directly (requests_completed). The tail of the
// history therefore holds exactly the records appended since a previous
// snapshot — no timestamp heuristics.
std::uint64_t HistoryAppends(const TelemetrySnapshot& snapshot) {
  return snapshot.dispatcher.events_drained + snapshot.dispatcher.requests_completed;
}

}  // namespace

MetricsSampler::MetricsSampler(Options options, SnapshotFn snapshot, FlightRecorder* recorder)
    : options_(std::move(options)), snapshot_fn_(std::move(snapshot)), recorder_(recorder) {
  CONCORD_CHECK(options_.window_ms > 0.0) << "metrics window must be positive";
  CONCORD_CHECK(snapshot_fn_ != nullptr) << "snapshot provider is required";
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Start() {
  CONCORD_CHECK(!started_) << "sampler already started";
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  previous_ = snapshot_fn_();
  previous_appends_ = HistoryAppends(previous_);
  window_start_ms_ = 0.0;
  if (recorder_ != nullptr) {
    recorder_->SetArmed(true);
  }
  thread_ = std::jthread([this](std::stop_token stop) { Loop(stop); });
}

void MetricsSampler::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  thread_.request_stop();
  thread_.join();
  // Final partial window: whatever completed since the last tick still has
  // to land in the series (and the recorder's ring) for the completed-count
  // identity to hold.
  SampleWindow();
  if (recorder_ != nullptr) {
    recorder_->SetArmed(false);
  }
}

bool MetricsSampler::StopAndWriteSeries(const std::string& path) {
  Stop();
  return path.empty() || WriteSeries(path);
}

void MetricsSampler::Loop(std::stop_token stop) {
  std::mutex mu;
  std::condition_variable_any wake;
  std::unique_lock<std::mutex> lock(mu);
  const auto window = std::chrono::duration<double, std::milli>(options_.window_ms);
  // One window per wait; a stop request ends the wait at once, and Stop()
  // flushes the final window itself after the join.
  while (!wake.wait_for(lock, stop, window, [&stop] { return stop.stop_requested(); })) {
    SampleWindow();
  }
}

void MetricsSampler::SampleWindow() {
  const double now_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch_)
          .count();
  TelemetrySnapshot current = snapshot_fn_();
  // The history is read once, here; the diff and the next baseline need
  // only the counters.
  const std::vector<RequestLifecycle> history = std::exchange(current.lifecycles, {});
  const TelemetrySnapshot diff = TelemetrySnapshot::Diff(previous_, current);

  MetricsWindow window;
  window.start_ms = window_start_ms_;
  window.duration_ms = std::max(now_ms - window_start_ms_, 1e-6);
  window.completed = diff.RequestsCompleted();
  window.throughput_rps = static_cast<double>(window.completed) / (window.duration_ms / 1e3);
  window.preempt_signals = diff.PreemptionsRequested();
  window.preempt_yields = diff.PreemptionsHonored();
  window.dispatcher_quanta = diff.dispatcher.quanta_run;
  window.ring_dropped = diff.dispatcher.ring_dropped;
  window.ingress_rejected = diff.dispatcher.ingress_rejected;
  window.negative_slack_dispatches = diff.dispatcher.slack_histogram[0];
  for (const std::uint64_t bucket : diff.dispatcher.slack_histogram) {
    window.deadline_dispatches += bucket;
  }
  window.jbsq_pushes.reserve(diff.workers.size());
  window.max_inflight.reserve(current.workers.size());
  for (const telemetry::WorkerSnapshot& worker : diff.workers) {
    window.jbsq_pushes.push_back(worker.jbsq_pushes);
  }
  for (const telemetry::WorkerSnapshot& worker : current.workers) {
    window.max_inflight.push_back(worker.max_inflight);
  }

  // Score the lifecycles appended to the history during this window. The
  // history is append-ordered, so they are its tail; if more were appended
  // than the bounded history still holds, the overflow is counted, never
  // silently skipped.
  const std::uint64_t appends = HistoryAppends(current);
  const std::uint64_t appended = appends - previous_appends_;
  const auto fresh_count =
      static_cast<std::size_t>(std::min<std::uint64_t>(appended, history.size()));
  const std::uint64_t missed = appended - fresh_count;
  const auto fresh = std::span<const RequestLifecycle>(history).last(fresh_count);
  // The one slowdown definition, (complete_tsc - arrival_tsc) / service_tsc
  // floored at 1. It skips the anatomy's full stamp-chain check, so a request
  // whose worker stamps sit a few ticks off the dispatcher's (cross-core TSC
  // skew) is still scored.
  Histogram slowdowns;
  for (const RequestLifecycle& lc : fresh) {
    if (lc.complete_tsc > lc.arrival_tsc && lc.service_tsc > 0) {
      slowdowns.Record(std::max(static_cast<double>(lc.complete_tsc - lc.arrival_tsc) /
                                    static_cast<double>(lc.service_tsc),
                                1.0));
    }
  }
  window.slowdown_samples = slowdowns.Count();
  if (window.slowdown_samples > 0) {
    window.slowdown_p50 = slowdowns.Quantile(0.50);
    window.slowdown_p99 = slowdowns.Quantile(0.99);
    window.slowdown_p999 = slowdowns.Quantile(0.999);
  }

  if (recorder_ != nullptr) {
    recorder_->OnWindow(window, current, fresh, missed);
  }
  previous_ = std::move(current);
  previous_appends_ = appends;
  window_start_ms_ = now_ms;

  {
    std::lock_guard<std::mutex> lock(series_mu_);
    missed_lifecycles_ += missed;
    series_.push_back(std::move(window));
    while (series_.size() > std::max<std::size_t>(options_.series_capacity, 1)) {
      series_.pop_front();
      ++dropped_windows_;
    }
  }
  if (!options_.exposition_path.empty()) {
    telemetry::WriteTextFileAtomic(ToPrometheusText(), options_.exposition_path, "metrics");
  }
}

std::vector<MetricsWindow> MetricsSampler::Windows() const {
  std::lock_guard<std::mutex> lock(series_mu_);
  return {series_.begin(), series_.end()};
}

std::uint64_t MetricsSampler::dropped_windows() const {
  std::lock_guard<std::mutex> lock(series_mu_);
  return dropped_windows_;
}

std::uint64_t MetricsSampler::missed_lifecycles() const {
  std::lock_guard<std::mutex> lock(series_mu_);
  return missed_lifecycles_;
}

JsonValue MetricsWindowJson(const MetricsWindow& window) {
  JsonValue entry = JsonValue::MakeObject();
  entry.Set("start_ms", JsonValue::MakeNumber(window.start_ms));
  entry.Set("duration_ms", JsonValue::MakeNumber(window.duration_ms));
  entry.Set("completed", JsonValue::MakeUint(window.completed));
  entry.Set("throughput_rps", JsonValue::MakeNumber(window.throughput_rps));
  entry.Set("slowdown_p50", JsonValue::MakeNumber(window.slowdown_p50));
  entry.Set("slowdown_p99", JsonValue::MakeNumber(window.slowdown_p99));
  entry.Set("slowdown_p999", JsonValue::MakeNumber(window.slowdown_p999));
  entry.Set("slowdown_samples", JsonValue::MakeUint(window.slowdown_samples));
  entry.Set("preempt_signals", JsonValue::MakeUint(window.preempt_signals));
  entry.Set("preempt_yields", JsonValue::MakeUint(window.preempt_yields));
  entry.Set("dispatcher_quanta", JsonValue::MakeUint(window.dispatcher_quanta));
  entry.Set("ring_dropped", JsonValue::MakeUint(window.ring_dropped));
  entry.Set("ingress_rejected", JsonValue::MakeUint(window.ingress_rejected));
  entry.Set("negative_slack_dispatches", JsonValue::MakeUint(window.negative_slack_dispatches));
  entry.Set("deadline_dispatches", JsonValue::MakeUint(window.deadline_dispatches));
  JsonValue pushes = JsonValue::MakeArray();
  for (std::uint64_t value : window.jbsq_pushes) {
    pushes.MutableArray().push_back(JsonValue::MakeUint(value));
  }
  entry.Set("jbsq_pushes", std::move(pushes));
  JsonValue inflight = JsonValue::MakeArray();
  for (std::uint64_t value : window.max_inflight) {
    inflight.MutableArray().push_back(JsonValue::MakeUint(value));
  }
  entry.Set("max_inflight", std::move(inflight));
  return entry;
}

std::string MetricsSampler::ToJsonSeries() const {
  std::vector<MetricsWindow> windows = Windows();
  JsonValue root = JsonValue::MakeObject();
  root.Set("schema", JsonValue::MakeString(kMetricsSchema));
  root.Set("window_ms", JsonValue::MakeNumber(options_.window_ms));
  root.Set("dropped_windows", JsonValue::MakeUint(dropped_windows()));
  root.Set("missed_lifecycles", JsonValue::MakeUint(missed_lifecycles()));
  std::uint64_t total_completed = 0;
  JsonValue series = JsonValue::MakeArray();
  for (const MetricsWindow& window : windows) {
    total_completed += window.completed;
    series.MutableArray().push_back(MetricsWindowJson(window));
  }
  root.Set("total_completed", JsonValue::MakeUint(total_completed));
  root.Set("windows", std::move(series));
  return root.Dump();
}

std::string MetricsSampler::ToPrometheusText() const {
  const std::vector<MetricsWindow> windows = Windows();
  std::uint64_t total_completed = 0;
  std::uint64_t total_signals = 0;
  std::uint64_t total_yields = 0;
  std::uint64_t total_quanta = 0;
  for (const MetricsWindow& window : windows) {
    total_completed += window.completed;
    total_signals += window.preempt_signals;
    total_yields += window.preempt_yields;
    total_quanta += window.dispatcher_quanta;
  }
  std::string out;
  const auto counter = [&out](const char* name, const char* help, std::uint64_t value) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  counter("concord_requests_completed_total", "Requests completed across all sampled windows.",
          total_completed);
  counter("concord_preempt_signals_total", "Preemptions requested by the dispatcher.",
          total_signals);
  counter("concord_preempt_yields_total", "Preemptions honored at a probe.", total_yields);
  counter("concord_dispatcher_quanta_total", "Work-conserving dispatcher quanta run.",
          total_quanta);
  counter("concord_metrics_windows_total", "Windows sampled (including dropped).",
          static_cast<std::uint64_t>(windows.size()) + dropped_windows());
  counter("concord_metrics_windows_dropped_total", "Windows evicted from the bounded series.",
          dropped_windows());
  if (!windows.empty()) {
    const MetricsWindow& latest = windows.back();
    out += "# HELP concord_window_throughput_rps Completed requests per second, latest window.\n";
    out += "# TYPE concord_window_throughput_rps gauge\n";
    out += "concord_window_throughput_rps " + std::to_string(latest.throughput_rps) + "\n";
    out += "# HELP concord_window_slowdown Request slowdown quantiles, latest window.\n";
    out += "# TYPE concord_window_slowdown gauge\n";
    out += "concord_window_slowdown{quantile=\"0.5\"} " + std::to_string(latest.slowdown_p50) +
           "\n";
    out += "concord_window_slowdown{quantile=\"0.99\"} " + std::to_string(latest.slowdown_p99) +
           "\n";
    out += "concord_window_slowdown{quantile=\"0.999\"} " + std::to_string(latest.slowdown_p999) +
           "\n";
    out += "# HELP concord_window_jbsq_pushes JBSQ inbox pushes per worker, latest window.\n";
    out += "# TYPE concord_window_jbsq_pushes gauge\n";
    for (std::size_t w = 0; w < latest.jbsq_pushes.size(); ++w) {
      out += "concord_window_jbsq_pushes{worker=\"" + std::to_string(w) + "\"} " +
             std::to_string(latest.jbsq_pushes[w]) + "\n";
    }
    out += "# HELP concord_worker_max_inflight High-water JBSQ occupancy per worker.\n";
    out += "# TYPE concord_worker_max_inflight gauge\n";
    for (std::size_t w = 0; w < latest.max_inflight.size(); ++w) {
      out += "concord_worker_max_inflight{worker=\"" + std::to_string(w) + "\"} " +
             std::to_string(latest.max_inflight[w]) + "\n";
    }
  }
  return out;
}

bool MetricsSampler::WriteSeries(const std::string& path) const {
  return telemetry::WriteTextFile(ToJsonSeries(), path, "metrics series");
}

std::unique_ptr<MetricsSampler> StartMetricsSampler(int argc, char** argv,
                                                    const std::string& metrics_out,
                                                    MetricsSampler::SnapshotFn snapshot,
                                                    FlightRecorder* recorder) {
  MetricsSampler::Options options;
  options.window_ms = telemetry::MetricsWindowMs(argc, argv);
  if (!metrics_out.empty() && metrics_out != "-") {
    options.exposition_path = metrics_out + ".prom";
  }
  auto sampler =
      std::make_unique<MetricsSampler>(std::move(options), std::move(snapshot), recorder);
  sampler->Start();
  return sampler;
}

}  // namespace concord::trace
