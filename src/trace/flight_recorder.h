// FlightRecorder: anomaly-triggered dump of the recent scheduling past
// (docs/observability.md).
//
// The recorder is a passive subscriber of a MetricsSampler (passed to the
// sampler's constructor) and has no thread of its own. Every sampler window
// hands it the window's counters and its freshly completed lifecycles; the
// recorder keeps a bounded ring of the most recent lifecycles and evaluates
// four trigger predicates on the window:
//
//   * deadline-miss burst: negative-slack dispatches (slack bucket 0) in one
//     window reach a count threshold;
//   * negative-slack rate: the fraction of deadline-carrying dispatches that
//     were already past deadline reaches a rate threshold;
//   * ingress backpressure: rejected Submit() calls in one window reach a
//     count threshold;
//   * p99 slowdown: the window's p99 slowdown (the sampler's exact
//     latency/service) reaches a ratio threshold.
//
// When a trigger fires, the ring is synthesized into a valid concord.trace.v1
// file (SynthesizeCaptureFromLifecycles) and written via WriteChromeTrace —
// the last few milliseconds of scheduling history land on disk for offline
// autopsy with concord_trace, captured *after* the anomaly, with tracing
// itself never enabled. The hot paths are untouched, and arming the recorder
// adds no telemetry poll: it reuses the sampler's.

#ifndef CONCORD_SRC_TRACE_FLIGHT_RECORDER_H_
#define CONCORD_SRC_TRACE_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/trace/collector.h"
#include "src/trace/metrics_sampler.h"

namespace concord::trace {

struct FlightRecorderOptions {
  // Lifecycles kept armed (oldest evicted, counted); the dump window.
  std::size_t ring_capacity = 4096;

  // Trigger thresholds; zero disables a trigger. All evaluated per window.
  std::uint64_t deadline_miss_burst = 0;   // negative-slack dispatches
  double negative_slack_rate = 0.0;        // fraction of deadline dispatches
  std::uint64_t negative_slack_min_samples = 16;
  std::uint64_t ingress_reject_burst = 0;  // rejected Submit() calls
  double p99_slowdown = 0.0;               // latency / service ratio
  std::uint64_t p99_min_samples = 32;

  // Dump destination; dump N > 0 appends ".N". At most max_dumps files are
  // written per recorder (re-triggering past that only counts).
  std::string dump_path = "flight.trace.json";
  std::size_t max_dumps = 4;

  // Capture metadata stamped into dumps that the telemetry snapshot does not
  // carry (tsc_ghz, worker count and policy come from the snapshot); zero
  // values degrade display, not validity.
  int jbsq_depth = 0;
  double quantum_us = 0.0;
};

// Builds a valid concord.trace.v1 capture from completed-request lifecycles.
// Unpreempted requests synthesize their full arrival/dispatch/segment
// timeline exactly from the lifecycle stamps; preempted requests are
// truncated after their first segment (later re-dispatch stamps are not
// recorded per lifecycle), and the truncation is declared honestly in
// buffer_dropped (plus `evicted` for lifecycles the ring already dropped),
// so the offline analyzer treats the file as accounted-lossy rather than
// mis-stitched. Sequences are assigned densely per stream in producer-time
// order, matching the collector's on-wire contract.
// `meta` supplies the capture metadata (tsc_ghz, worker_count, jbsq_depth,
// quantum_us, policy); its records and drop counts are replaced.
TraceCapture SynthesizeCaptureFromLifecycles(
    TraceCapture meta, const std::vector<telemetry::RequestLifecycle>& lifecycles,
    std::uint64_t evicted);

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // True between the owning sampler's Start() and Stop().
  bool armed() const;
  std::uint64_t dumps_written() const;
  std::uint64_t triggers_fired() const;  // includes fires past max_dumps
  std::string last_trigger() const;      // empty until the first fire
  std::uint64_t lifecycles_buffered() const;
  std::uint64_t lifecycles_evicted() const;

  // Manual trigger: dump the current ring now (same max_dumps budget).
  // Returns the dump path, or empty when the budget is spent or I/O failed.
  std::string DumpNow(const std::string& reason);

  // Trigger configuration + live status as JSON (served by /statusz and
  // /flightz); `last_window` is the sampler's latest window.
  std::string StatusJson() const;

 private:
  // The subscriber interface, called by the owning MetricsSampler only:
  // arming at Start()/Stop(), and each window (on the sampler thread, or on
  // the stopping thread for the final flush) with the snapshot it diffed and
  // the lifecycles it scored; `missed` completed but left the telemetry
  // history before the sampler saw them.
  friend class MetricsSampler;
  void SetArmed(bool armed);
  void OnWindow(const MetricsWindow& window, const telemetry::TelemetrySnapshot& current,
                std::span<const telemetry::RequestLifecycle> fresh, std::uint64_t missed);

  std::string DumpLocked(const std::string& reason);

  const FlightRecorderOptions options_;

  mutable std::mutex mu_;  // guards everything below
  bool armed_ = false;
  TraceCapture meta_;  // dump metadata, refreshed from each window's snapshot
  std::deque<telemetry::RequestLifecycle> ring_;
  std::optional<MetricsWindow> last_window_;
  std::uint64_t evicted_ = 0;
  std::uint64_t dumps_written_ = 0;
  std::uint64_t triggers_fired_ = 0;
  std::string last_trigger_;
};

}  // namespace concord::trace

#endif  // CONCORD_SRC_TRACE_FLIGHT_RECORDER_H_
