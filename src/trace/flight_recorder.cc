#include "src/trace/flight_recorder.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/json.h"
#include "src/trace/chrome_trace.h"

namespace concord::trace {

namespace {

using telemetry::JsonValue;
using telemetry::RequestLifecycle;
using telemetry::TelemetrySnapshot;

std::string DumpFileName(const std::string& base, std::uint64_t index) {
  return index == 0 ? base : base + "." + std::to_string(index);
}

}  // namespace

TraceCapture SynthesizeCaptureFromLifecycles(TraceCapture meta,
                                             const std::vector<RequestLifecycle>& lifecycles,
                                             std::uint64_t evicted) {
  TraceCapture capture = std::move(meta);
  capture.enabled = true;
  capture.records.clear();
  capture.ring_dropped = 0;
  capture.buffer_dropped = evicted;
  if (capture.worker_count > 0) {
    capture.ring_dropped_per_worker.assign(static_cast<std::size_t>(capture.worker_count), 0);
  }

  // Raw records first; sequences are assigned per stream afterwards.
  std::vector<TraceRecord> raw;
  raw.reserve(lifecycles.size() * 3);
  for (const RequestLifecycle& lc : lifecycles) {
    if (lc.arrival_tsc == 0 || lc.adopt_tsc == 0 || lc.dispatch_tsc == 0 ||
        lc.first_run_tsc == 0 || lc.finish_tsc == 0) {
      // Pre-anatomy or clock-skewed record: nothing trustworthy to place on
      // a timeline. Declared, not silently skipped.
      ++capture.buffer_dropped;
      continue;
    }
    const bool pinned = lc.first_worker == telemetry::kDispatcherWorkerId;
    const std::int32_t track = pinned ? kDispatcherTrack : lc.first_worker;
    raw.push_back(TraceRecord{lc.id, lc.arrival_tsc, lc.adopt_tsc, RecordKind::kArrival,
                              kDispatcherTrack, lc.request_class, 0});
    // Deadline and enqueue-time occupancy are not part of the lifecycle;
    // both dispatch extras are zero (the occupancy tag is only checked on
    // lossless files, which a flight dump never claims to be).
    raw.push_back(TraceRecord{lc.id, lc.dispatch_tsc, 0, RecordKind::kDispatch, track,
                              lc.request_class, 0});
    if (lc.preemptions == 0) {
      raw.push_back(TraceRecord{lc.id, lc.first_run_tsc, lc.finish_tsc, RecordKind::kSegment,
                                track, lc.request_class,
                                static_cast<std::uint32_t>(SegmentEnd::kFinished)});
    } else {
      // Re-dispatch and resume stamps beyond the first few yields are not
      // recorded per lifecycle, so the timeline is truncated after the first
      // segment and the 2*preemptions missing records (one re-dispatch + one
      // segment each) are declared as buffer loss.
      if (lc.preempt_tsc[0] > lc.first_run_tsc) {
        raw.push_back(TraceRecord{
            lc.id, lc.first_run_tsc, lc.preempt_tsc[0], RecordKind::kSegment, track,
            lc.request_class,
            static_cast<std::uint32_t>(pinned ? SegmentEnd::kDispatcherQuantum
                                              : SegmentEnd::kPreemptYield)});
        capture.buffer_dropped += 2 * static_cast<std::uint64_t>(lc.preemptions);
      } else {
        // First yield predates the stamp window (or was never stamped): drop
        // the whole run phase, keeping arrival + dispatch.
        capture.buffer_dropped += 2 * static_cast<std::uint64_t>(lc.preemptions) + 1;
      }
    }
  }

  // Dense per-stream sequences in producer-time order: the dispatcher stream
  // carries arrivals (producer time = adoption) and dispatches; each worker
  // stream carries its segments. This mirrors the live collector's contract,
  // so the analyzer's sequence check sees zero gaps.
  std::vector<std::size_t> order(raw.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const auto producer_tsc = [](const TraceRecord& r) {
    return r.kind == RecordKind::kArrival ? r.end_tsc : r.start_tsc;
  };
  const auto stream_of = [](const TraceRecord& r) {
    return r.kind == RecordKind::kSegment ? r.worker : kDispatcherTrack;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (stream_of(raw[a]) != stream_of(raw[b])) {
      return stream_of(raw[a]) < stream_of(raw[b]);
    }
    return producer_tsc(raw[a]) < producer_tsc(raw[b]);
  });
  capture.records.reserve(raw.size());
  std::int32_t current_stream = kDispatcherTrack - 1;
  std::uint64_t next_sequence = 0;
  std::uint64_t base_tsc = 0;
  for (const std::size_t i : order) {
    if (stream_of(raw[i]) != current_stream) {
      current_stream = stream_of(raw[i]);
      next_sequence = 0;
    }
    capture.records.push_back(CollectedRecord{raw[i], next_sequence++});
    if (base_tsc == 0 || raw[i].start_tsc < base_tsc) {
      base_tsc = raw[i].start_tsc;
    }
  }
  capture.base_tsc = base_tsc;
  return capture;
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options) : options_(std::move(options)) {
  meta_.jbsq_depth = options_.jbsq_depth;
  meta_.quantum_us = options_.quantum_us;
}

bool FlightRecorder::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

void FlightRecorder::SetArmed(bool armed) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = armed;
}

std::uint64_t FlightRecorder::dumps_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dumps_written_;
}

std::uint64_t FlightRecorder::triggers_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return triggers_fired_;
}

std::string FlightRecorder::last_trigger() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_trigger_;
}

std::uint64_t FlightRecorder::lifecycles_buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t FlightRecorder::lifecycles_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

void FlightRecorder::OnWindow(const MetricsWindow& window, const TelemetrySnapshot& current,
                              std::span<const RequestLifecycle> fresh, std::uint64_t missed) {
  // Trigger predicates, most specific first; one fire per window.
  std::string trigger;
  if (options_.deadline_miss_burst > 0 &&
      window.negative_slack_dispatches >= options_.deadline_miss_burst) {
    trigger = "deadline_miss_burst: " + std::to_string(window.negative_slack_dispatches) +
              " negative-slack dispatch(es) in one window (threshold " +
              std::to_string(options_.deadline_miss_burst) + ")";
  } else if (options_.negative_slack_rate > 0.0 &&
             window.deadline_dispatches >= options_.negative_slack_min_samples &&
             static_cast<double>(window.negative_slack_dispatches) >=
                 options_.negative_slack_rate *
                     static_cast<double>(window.deadline_dispatches)) {
    trigger = "negative_slack_rate: " + std::to_string(window.negative_slack_dispatches) +
              " of " + std::to_string(window.deadline_dispatches) +
              " deadline dispatch(es) past deadline";
  } else if (options_.ingress_reject_burst > 0 &&
             window.ingress_rejected >= options_.ingress_reject_burst) {
    trigger = "ingress_backpressure: " + std::to_string(window.ingress_rejected) +
              " rejected submit(s) in one window (threshold " +
              std::to_string(options_.ingress_reject_burst) + ")";
  } else if (options_.p99_slowdown > 0.0 &&
             window.slowdown_samples >= std::max<std::uint64_t>(options_.p99_min_samples, 1) &&
             window.slowdown_p99 >= options_.p99_slowdown) {
    trigger = "p99_slowdown: window p99 latency/service " +
              std::to_string(window.slowdown_p99) + " (threshold " +
              std::to_string(options_.p99_slowdown) + ")";
  }

  std::lock_guard<std::mutex> lock(mu_);
  meta_.tsc_ghz = current.tsc_ghz;
  meta_.worker_count = static_cast<int>(current.workers.size());
  meta_.policy = current.policy;
  evicted_ += missed;  // completed but evicted from the telemetry history
  for (const RequestLifecycle& lifecycle : fresh) {
    ring_.push_back(lifecycle);
    if (ring_.size() > std::max<std::size_t>(options_.ring_capacity, 1)) {
      ring_.pop_front();
      ++evicted_;
    }
  }
  last_window_ = window;
  if (!trigger.empty()) {
    ++triggers_fired_;
    last_trigger_ = trigger;
    DumpLocked(trigger);
  }
}

std::string FlightRecorder::DumpNow(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++triggers_fired_;
  last_trigger_ = "manual: " + reason;
  return DumpLocked(last_trigger_);
}

std::string FlightRecorder::DumpLocked(const std::string& reason) {
  if (dumps_written_ >= options_.max_dumps) {
    return std::string();
  }
  const std::vector<RequestLifecycle> window(ring_.begin(), ring_.end());
  const TraceCapture capture = SynthesizeCaptureFromLifecycles(meta_, window, evicted_);
  const std::string path = DumpFileName(options_.dump_path, dumps_written_);
  if (!WriteChromeTrace(capture, path)) {
    CONCORD_LOG(kInfo) << "flight recorder: failed to write dump to " << path;
    return std::string();
  }
  ++dumps_written_;
  CONCORD_LOG(kInfo) << "flight recorder: dumped " << capture.records.size() << " record(s) to "
              << path << " (" << reason << ")";
  return path;
}

std::string FlightRecorder::StatusJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue root = JsonValue::MakeObject();
  root.Set("armed", JsonValue::MakeBool(armed_));
  root.Set("ring_capacity", JsonValue::MakeUint(options_.ring_capacity));
  root.Set("lifecycles_buffered", JsonValue::MakeUint(ring_.size()));
  root.Set("lifecycles_evicted", JsonValue::MakeUint(evicted_));
  root.Set("triggers_fired", JsonValue::MakeUint(triggers_fired_));
  root.Set("dumps_written", JsonValue::MakeUint(dumps_written_));
  root.Set("max_dumps", JsonValue::MakeUint(options_.max_dumps));
  root.Set("dump_path", JsonValue::MakeString(options_.dump_path));
  root.Set("last_trigger", JsonValue::MakeString(last_trigger_));
  JsonValue thresholds = JsonValue::MakeObject();
  thresholds.Set("deadline_miss_burst", JsonValue::MakeUint(options_.deadline_miss_burst));
  thresholds.Set("negative_slack_rate", JsonValue::MakeNumber(options_.negative_slack_rate));
  thresholds.Set("ingress_reject_burst", JsonValue::MakeUint(options_.ingress_reject_burst));
  thresholds.Set("p99_slowdown", JsonValue::MakeNumber(options_.p99_slowdown));
  root.Set("thresholds", std::move(thresholds));
  if (last_window_.has_value()) {
    // The series entry, plus the two field names /flightz has always used.
    JsonValue window = MetricsWindowJson(*last_window_);
    window.Set("at_ms", JsonValue::MakeNumber(last_window_->start_ms + last_window_->duration_ms));
    window.Set("p99_slowdown", JsonValue::MakeNumber(last_window_->slowdown_p99));
    root.Set("last_window", std::move(window));
  }
  return root.Dump();
}

}  // namespace concord::trace
