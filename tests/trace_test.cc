// Unit and integration tests for the scheduling-trace layer (src/trace):
// collector drop accounting (buffer eviction + ring sequence gaps), Chrome
// trace-event export with exact TSC args, the offline analyzer's invariant
// checks on both clean and deliberately corrupted traces, a live
// runtime -> trace -> analyzer round trip, and the MetricsSampler's
// windows-sum-to-total identity and its one slowdown definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/instrument.h"
#include "src/runtime/runtime.h"
#include "src/stats/histogram.h"
#include "src/telemetry/event_ring.h"
#include "src/telemetry/json.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/analyzer.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/collector.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/metrics_sampler.h"

namespace concord::trace {
namespace {

TraceRecord MakeSegment(std::uint64_t id, std::uint64_t start, std::uint64_t end,
                        std::int32_t worker, SegmentEnd reason, std::int32_t cls = 0) {
  return TraceRecord{id, start, end, RecordKind::kSegment, worker, cls,
                     static_cast<std::uint32_t>(reason)};
}

// Builds a synthetic TraceCapture with the same sequence discipline the
// collector uses: worker segments on per-worker streams, everything else on
// the dispatcher stream, both dense from 0. Records must be added in time
// order (that is what the producers guarantee).
class CaptureBuilder {
 public:
  CaptureBuilder(int workers, int jbsq_depth, double quantum_us) {
    capture_.enabled = true;
    capture_.tsc_ghz = 1.0;  // 1 GHz: 1000 tsc == 1 us, keeps arithmetic exact
    capture_.worker_count = workers;
    capture_.jbsq_depth = jbsq_depth;
    capture_.quantum_us = quantum_us;
    capture_.ring_dropped_per_worker.assign(static_cast<std::size_t>(workers), 0);
    worker_seq_.assign(static_cast<std::size_t>(workers), 0);
  }

  void Add(const TraceRecord& record) {
    std::uint64_t seq;
    if (record.kind == RecordKind::kSegment && record.worker >= 0) {
      seq = worker_seq_[static_cast<std::size_t>(record.worker)]++;
    } else {
      seq = dispatcher_seq_++;
    }
    capture_.records.push_back(CollectedRecord{record, seq});
  }

  void Arrival(std::uint64_t id, std::uint64_t submit, std::uint64_t adopt,
               std::int32_t cls = 0) {
    Add(TraceRecord{id, submit, adopt, RecordKind::kArrival, kDispatcherTrack, cls, 0});
  }

  // Dispatch records carry the request's absolute deadline in end_tsc
  // (0 = submitted without one) — the field the offline EDF check reads.
  void Dispatch(std::uint64_t id, std::uint64_t tsc, std::int32_t worker, std::uint32_t depth,
                std::int32_t cls = 0, std::uint64_t deadline_tsc = 0) {
    Add(TraceRecord{id, tsc, deadline_tsc, RecordKind::kDispatch, worker, cls, depth});
  }

  void Segment(std::uint64_t id, std::uint64_t start, std::uint64_t end, std::int32_t worker,
               SegmentEnd reason, std::int32_t cls = 0) {
    Add(MakeSegment(id, start, end, worker, reason, cls));
  }

  void PreemptSignal(std::int32_t worker, std::uint64_t tsc) {
    Add(TraceRecord{0, tsc, 0, RecordKind::kPreemptSignal, worker, 0, 0});
  }

  TraceCapture& capture() { return capture_; }

  AnalyzerReport Analyze(AnalyzerOptions options = {}) const {
    return AnalyzeChromeTraceJson(ToChromeTraceJson(capture_), options);
  }

 private:
  TraceCapture capture_;
  std::uint64_t dispatcher_seq_ = 0;
  std::vector<std::uint64_t> worker_seq_;
};

// One complete worker-path request: dispatch -> run -> yield -> re-dispatch
// -> run -> finish, at easily checkable 1 GHz timestamps.
void AddPreemptedWorkerRequest(CaptureBuilder* builder, std::uint64_t id, std::uint64_t base,
                               std::int32_t worker) {
  builder->Arrival(id, base + 100, base + 1100);
  builder->Dispatch(id, base + 2100, worker, 1);
  builder->PreemptSignal(worker, base + 8000);
  builder->Segment(id, base + 3100, base + 8100, worker, SegmentEnd::kPreemptYield);
  builder->Dispatch(id, base + 9100, worker, 1);
  builder->Segment(id, base + 10100, base + 15100, worker, SegmentEnd::kFinished);
}

TEST(TraceCollectorTest, AppendAssignsDenseDispatcherSequences) {
  TraceCollector collector(/*worker_count=*/2, /*buffer_capacity=*/16);
  for (std::uint64_t i = 0; i < 3; ++i) {
    collector.Append(TraceRecord{i, 100 * i, 0, RecordKind::kDispatch, 0, 0, 1});
  }
  const TraceCapture capture = collector.Capture();
  ASSERT_EQ(capture.records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(capture.records[i].sequence, i);
    EXPECT_EQ(capture.records[i].record.request_id, i);
  }
  EXPECT_EQ(capture.buffer_dropped, 0u);
  EXPECT_EQ(capture.ring_dropped, 0u);
}

TEST(TraceCollectorTest, BufferEvictsOldestAndCountsEveryEviction) {
  TraceCollector collector(/*worker_count=*/1, /*buffer_capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    collector.Append(TraceRecord{i, i, 0, RecordKind::kDispatch, 0, 0, 1});
  }
  const TraceCapture capture = collector.Capture();
  ASSERT_EQ(capture.records.size(), 4u);
  EXPECT_EQ(capture.buffer_dropped, 6u);
  // The newest four survive, sequence numbering intact.
  EXPECT_EQ(capture.records.front().record.request_id, 6u);
  EXPECT_EQ(capture.records.front().sequence, 6u);
  EXPECT_EQ(capture.records.back().sequence, 9u);
}

TEST(TraceCollectorTest, DrainWorkerRingCountsSequenceGapsExactly) {
  TraceCollector collector(/*worker_count=*/2, /*buffer_capacity=*/64);
  telemetry::EventRing<TraceRecord> ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.Push(MakeSegment(i, 10 * i, 10 * i + 5, /*worker=*/1, SegmentEnd::kFinished));
  }
  collector.DrainWorkerRing(1, &ring);
  const TraceCapture capture = collector.Capture();
  // The 4-slot ring kept only the last 4 of 10 pushes; the 6 overwritten
  // records must surface as ring loss, attributed to worker 1.
  ASSERT_EQ(capture.records.size(), 4u);
  EXPECT_EQ(capture.ring_dropped, 6u);
  ASSERT_EQ(capture.ring_dropped_per_worker.size(), 2u);
  EXPECT_EQ(capture.ring_dropped_per_worker[0], 0u);
  EXPECT_EQ(capture.ring_dropped_per_worker[1], 6u);
  EXPECT_EQ(capture.records.front().sequence, 6u);
  EXPECT_EQ(capture.records.front().record.request_id, 6u);
}

TEST(ChromeTraceTest, JsonCarriesSchemaTrackMetadataAndExactTscArgs) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/20.0);
  // A start TSC beyond double's 53-bit mantissa: the args must keep it exact
  // even though the display `ts` field is a lossy double.
  const std::uint64_t big = (std::uint64_t{1} << 60) + 7;
  builder.capture().base_tsc = big - 1000;
  builder.Arrival(42, big - 900, big - 500, /*cls=*/3);
  builder.Dispatch(42, big - 400, 0, 1, /*cls=*/3);
  builder.Segment(42, big, big + 5000, 0, SegmentEnd::kFinished, /*cls=*/3);

  const std::string json = ToChromeTraceJson(builder.capture());
  telemetry::JsonValue root;
  ASSERT_TRUE(telemetry::JsonValue::Parse(json, &root)) << json;
  const telemetry::JsonValue* other = root.Get("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->Get("schema"), nullptr);
  EXPECT_EQ(other->Get("schema")->AsString(), kTraceSchema);
  EXPECT_EQ(other->GetInt("worker_count"), 1);
  EXPECT_EQ(other->GetInt("jbsq_depth"), 2);

  const telemetry::JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_thread_metadata = false;
  bool saw_exact_segment = false;
  for (const telemetry::JsonValue& event : events->AsArray()) {
    const telemetry::JsonValue* ph = event.Get("ph");
    if (ph == nullptr) {
      continue;
    }
    if (ph->AsString() == "M") {
      saw_thread_metadata = true;
    }
    if (ph->AsString() == "X") {
      const telemetry::JsonValue* args = event.Get("args");
      ASSERT_NE(args, nullptr);
      if (args->GetUint("start_tsc") == big) {
        EXPECT_EQ(args->GetUint("end_tsc"), big + 5000);
        EXPECT_EQ(args->GetUint("id"), 42u);
        EXPECT_EQ(args->GetInt("class"), 3);
        saw_exact_segment = true;
      }
    }
  }
  EXPECT_TRUE(saw_thread_metadata);
  EXPECT_TRUE(saw_exact_segment);
}

TEST(AnalyzerTest, RoundTripRecomputesExactLatencyBreakdown) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  AddPreemptedWorkerRequest(&builder, /*id=*/1, /*base=*/0, /*worker=*/0);
  // A dispatcher-adopted request, pinned to completion (§3.3).
  builder.Arrival(2, 20000, 21000);
  builder.Dispatch(2, 22000, kDispatcherTrack, 0);
  builder.Segment(2, 22000, 27000, kDispatcherTrack, SegmentEnd::kDispatcherQuantum);
  builder.Segment(2, 28000, 30000, kDispatcherTrack, SegmentEnd::kFinished);

  const AnalyzerReport report = builder.Analyze();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_EQ(report.requests_total, 2u);
  EXPECT_EQ(report.requests_complete, 2u);
  EXPECT_EQ(report.requests_truncated, 0u);
  EXPECT_EQ(report.preempt_signals, 1u);
  EXPECT_EQ(report.dispatcher_segments, 2u);
  ASSERT_EQ(report.segments_per_worker.size(), 1u);
  EXPECT_EQ(report.segments_per_worker[0], 2u);
  EXPECT_EQ(report.observed_sequence_gaps, 0u);
  EXPECT_EQ(report.unexplained_drops, 0u);

  ASSERT_EQ(report.breakdowns.size(), 2u);
  for (const RequestBreakdown& breakdown : report.breakdowns) {
    // The four components partition [arrival, finish] by construction.
    EXPECT_DOUBLE_EQ(breakdown.first_wait_us + breakdown.inbox_wait_us +
                         breakdown.requeue_wait_us + breakdown.service_us,
                     breakdown.latency_us);
    if (breakdown.id == 1) {
      EXPECT_FALSE(breakdown.on_dispatcher);
      EXPECT_EQ(breakdown.segments, 2);
      EXPECT_EQ(breakdown.preemptions, 1);
      // 1 GHz capture: 1000 tsc per microsecond, all values exact.
      EXPECT_DOUBLE_EQ(breakdown.first_wait_us, 2.0);   // 100 -> 2100
      EXPECT_DOUBLE_EQ(breakdown.inbox_wait_us, 2.0);   // 2100->3100 + 9100->10100
      EXPECT_DOUBLE_EQ(breakdown.requeue_wait_us, 1.0);  // 8100 -> 9100
      EXPECT_DOUBLE_EQ(breakdown.service_us, 10.0);     // two 5 us segments
      EXPECT_DOUBLE_EQ(breakdown.latency_us, 15.0);     // 100 -> 15100
    } else {
      EXPECT_TRUE(breakdown.on_dispatcher);
      EXPECT_EQ(breakdown.segments, 2);
      EXPECT_DOUBLE_EQ(breakdown.latency_us, 10.0);  // 20000 -> 30000
    }
  }
}

TEST(AnalyzerTest, FlagsDispatchTaggedBeyondJbsqDepth) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  builder.Arrival(1, 100, 1100);
  builder.Dispatch(1, 2100, 0, /*depth=*/3);  // k = 2: the dispatcher never pushes a 3rd
  builder.Segment(1, 3100, 8100, 0, SegmentEnd::kFinished);
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().find("JBSQ occupancy"), std::string::npos);
}

TEST(AnalyzerTest, FlagsReplayedOccupancyBeyondK) {
  // Three requests pushed to worker 0 before any segment ends: the
  // independent replay must catch occupancy 3 > k even though every
  // dispatch lies with an in-bound depth tag.
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    builder.Arrival(id, 100 * id, 100 * id + 50);
    builder.Dispatch(id, 1000 + 10 * id, 0, /*depth=*/static_cast<std::uint32_t>(id % 2 + 1));
  }
  for (std::uint64_t id = 1; id <= 3; ++id) {
    builder.Segment(id, 2000 + 1000 * id, 2800 + 1000 * id, 0, SegmentEnd::kFinished);
  }
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const std::string& violation : report.violations) {
    found = found || violation.find("replayed JBSQ occupancy") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzerTest, FlagsDispatcherPinningViolation) {
  // A dispatcher-adopted request must stay on the dispatcher to completion;
  // a later worker segment is a §3.3 violation.
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  builder.Arrival(1, 100, 1100);
  builder.Dispatch(1, 2000, kDispatcherTrack, 0);
  builder.Segment(1, 2000, 7000, kDispatcherTrack, SegmentEnd::kDispatcherQuantum);
  builder.Segment(1, 8000, 9000, 0, SegmentEnd::kFinished);
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().find("ran on worker"), std::string::npos);
}

TEST(AnalyzerTest, FlagsNonMonotoneArrivalTimestamps) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  builder.Arrival(1, 100, 2500);  // adopted *after* the dispatch below
  builder.Dispatch(1, 2100, 0, 1);
  builder.Segment(1, 3100, 8100, 0, SegmentEnd::kFinished);
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  // Flagged twice: the per-request arrival/adopt/dispatch ordering check,
  // and the stream check (the adopt stamp runs backwards against the
  // dispatch stamp appended after it).
  bool found_monotone = false;
  for (const std::string& violation : report.violations) {
    found_monotone = found_monotone || violation.find("not monotone") != std::string::npos;
  }
  EXPECT_TRUE(found_monotone) << report.violations.front();
}

// Clean EDF trace: two requests pending together, dispatched
// earliest-deadline-first. The check must run (dispatch count reported) and
// find nothing.
TEST(AnalyzerTest, EdfTraceInDeadlineOrderPassesAndCountsChecks) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/1, /*quantum_us=*/5.0);
  builder.capture().policy = "edf";
  builder.Arrival(1, 100, 1000);  // deadline 50000
  builder.Arrival(2, 200, 1000);  // deadline 20000: earlier, must go first
  builder.Dispatch(2, 2000, 0, 1, 0, /*deadline_tsc=*/20000);
  builder.Segment(2, 2100, 3000, 0, SegmentEnd::kFinished);
  builder.Dispatch(1, 3500, 0, 1, 0, /*deadline_tsc=*/50000);
  builder.Segment(1, 3600, 4500, 0, SegmentEnd::kFinished);
  const AnalyzerReport report = builder.Analyze();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_EQ(report.policy, "edf");
  EXPECT_EQ(report.edf_dispatches_checked, 2u);
}

// The same two requests dispatched in the wrong order — the late deadline
// leaves while the early one waits — must fire the EDF ordering check. This
// is the synthetic-violation proof that the `concord_trace --check` rule has
// teeth.
TEST(AnalyzerTest, FlagsEdfDispatchPassingAnEarlierPendingDeadline) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/1, /*quantum_us=*/5.0);
  builder.capture().policy = "edf";
  builder.Arrival(1, 100, 1000);  // deadline 50000
  builder.Arrival(2, 200, 1000);  // deadline 20000, left waiting
  builder.Dispatch(1, 2000, 0, 1, 0, /*deadline_tsc=*/50000);
  builder.Segment(1, 2100, 3000, 0, SegmentEnd::kFinished);
  builder.Dispatch(2, 3500, 0, 1, 0, /*deadline_tsc=*/20000);
  builder.Segment(2, 3600, 4500, 0, SegmentEnd::kFinished);
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  bool found_edf = false;
  for (const std::string& violation : report.violations) {
    found_edf = found_edf || violation.find("EDF ordering") != std::string::npos;
  }
  EXPECT_TRUE(found_edf) << report.violations.front();
}

// The identical out-of-order dispatch stream under any other policy is
// legal: the check only arms when the capture says the runtime ran EDF, and
// deadline-free requests never enter the pending set.
TEST(AnalyzerTest, EdfCheckStaysDisarmedForOtherPoliciesAndBareRequests) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/1, /*quantum_us=*/5.0);
  builder.capture().policy = "concord-jbsq";
  builder.Arrival(1, 100, 1000);
  builder.Arrival(2, 200, 1000);
  builder.Dispatch(1, 2000, 0, 1, 0, /*deadline_tsc=*/50000);
  builder.Segment(1, 2100, 3000, 0, SegmentEnd::kFinished);
  builder.Dispatch(2, 3500, 0, 1, 0, /*deadline_tsc=*/20000);
  builder.Segment(2, 3600, 4500, 0, SegmentEnd::kFinished);
  const AnalyzerReport no_edf_policy = builder.Analyze();
  EXPECT_TRUE(no_edf_policy.ok());
  EXPECT_EQ(no_edf_policy.policy, "concord-jbsq");
  EXPECT_EQ(no_edf_policy.edf_dispatches_checked, 0u);

  // EDF policy, but no request carries a deadline: nothing to check, and a
  // zero count distinguishes "ran and found order" from "never ran".
  CaptureBuilder bare(/*workers=*/1, /*jbsq_depth=*/1, /*quantum_us=*/5.0);
  bare.capture().policy = "edf";
  bare.Arrival(1, 100, 1000);
  bare.Dispatch(1, 2000, 0, 1);
  bare.Segment(1, 2100, 3000, 0, SegmentEnd::kFinished);
  const AnalyzerReport no_deadlines = bare.Analyze();
  EXPECT_TRUE(no_deadlines.ok());
  EXPECT_EQ(no_deadlines.edf_dispatches_checked, 0u);
}

TEST(AnalyzerTest, UnexplainedSequenceGapFailsAZeroDropTrace) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  builder.Arrival(1, 100, 1100);
  builder.Dispatch(1, 2100, 0, 1);
  builder.Segment(1, 3100, 8100, 0, SegmentEnd::kFinished);
  builder.Arrival(2, 9000, 9100);
  builder.Dispatch(2, 9200, 0, 1);
  builder.Segment(2, 9300, 9800, 0, SegmentEnd::kFinished);
  // Corrupt worker 0's second segment sequence (0,1 -> 0,2): the file now
  // shows a hole it never declared.
  for (CollectedRecord& record : builder.capture().records) {
    if (record.record.kind == RecordKind::kSegment && record.record.request_id == 2) {
      record.sequence = 2;
    }
  }
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.observed_sequence_gaps, 1u);
  EXPECT_EQ(report.unexplained_drops, 1u);
}

TEST(AnalyzerTest, DeclaredDropsExplainTruncatedTimelines) {
  // Same hole, but the file declares the loss: the missing record makes the
  // request truncated, never a violation.
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  builder.Arrival(1, 100, 1100);
  builder.Dispatch(1, 2100, 0, 1);
  builder.Segment(1, 3100, 8100, 0, SegmentEnd::kPreemptYield);
  // The re-dispatch and final segment were lost in the ring.
  builder.capture().ring_dropped = 2;
  builder.capture().ring_dropped_per_worker[0] = 2;
  const AnalyzerReport report = builder.Analyze();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? report.error
                                                         : report.violations.front());
  EXPECT_EQ(report.requests_total, 1u);
  EXPECT_EQ(report.requests_complete, 0u);
  EXPECT_EQ(report.requests_truncated, 1u);
  EXPECT_EQ(report.unexplained_drops, 0u);
}

TEST(AnalyzerTest, TruncationUnderZeroDeclaredDropsIsUnexplained) {
  CaptureBuilder builder(/*workers=*/1, /*jbsq_depth=*/2, /*quantum_us=*/5.0);
  builder.Arrival(1, 100, 1100);
  builder.Dispatch(1, 2100, 0, 1);
  builder.Segment(1, 3100, 8100, 0, SegmentEnd::kPreemptYield);  // never finishes
  const AnalyzerReport report = builder.Analyze();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.requests_truncated, 1u);
  EXPECT_GE(report.unexplained_drops, 1u);
}

TEST(AnalyzerTest, RejectsNonConcordJson) {
  const AnalyzerReport report = AnalyzeChromeTraceJson("{\"traceEvents\":[]}", {});
  EXPECT_FALSE(report.error.empty());
  EXPECT_FALSE(report.ok());
}

TEST(LiveRuntimeTraceTest, TracingOffByDefaultYieldsDisabledCapture) {
  Runtime::Options options;
  options.worker_count = 1;
  options.quantum_us = 100.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) {};
  Runtime runtime(options, callbacks);
  runtime.Start();
  ASSERT_TRUE(runtime.Submit(1, 0, nullptr));
  runtime.WaitIdle();
  runtime.Shutdown();
  EXPECT_FALSE(runtime.trace_enabled());
  const TraceCapture capture = runtime.GetTrace();
  EXPECT_FALSE(capture.enabled);
  EXPECT_TRUE(capture.records.empty());
}

TEST(LiveRuntimeTraceTest, CaptureRoundTripsThroughFileAndAnalyzesClean) {
  if (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  constexpr int kRequests = 64;
  Runtime::Options options;
  options.worker_count = 2;
  options.jbsq_depth = 2;
  options.quantum_us = 50.0;
  options.trace_buffer_capacity = std::size_t{1} << 16;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) { SpinWithProbesUs(200.0); };
  Runtime runtime(options, callbacks);
  runtime.Start();
  EXPECT_TRUE(runtime.trace_enabled());
  // Driver loop in a test, not handler code. concord-lint: allow-no-probe
  for (int i = 0; i < kRequests; ++i) {
    while (!runtime.Submit(static_cast<std::uint64_t>(i), 0, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  runtime.Shutdown();

  const TraceCapture capture = runtime.GetTrace();
  ASSERT_TRUE(capture.enabled);
  EXPECT_EQ(capture.worker_count, 2);
  EXPECT_GT(capture.records.size(), static_cast<std::size_t>(kRequests));

  const std::string path = ::testing::TempDir() + "concord_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(capture, path));

  AnalyzerOptions analyzer_options;
  analyzer_options.grace_us = 1e6;  // CI hosts deschedule whole worker threads
  const AnalyzerReport report = AnalyzeChromeTraceFile(path, analyzer_options);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "unexplained drops"
                                                         : report.violations.front());
  EXPECT_EQ(report.requests_total, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(report.requests_complete, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(report.unexplained_drops, 0u);
  // Every request's recomputed components must partition its latency.
  for (const RequestBreakdown& breakdown : report.breakdowns) {
    EXPECT_NEAR(breakdown.first_wait_us + breakdown.inbox_wait_us + breakdown.requeue_wait_us +
                    breakdown.service_us,
                breakdown.latency_us, 1e-6);
    EXPECT_GT(breakdown.service_us, 0.0);
  }
}

TEST(MetricsSamplerTest, WindowCompletionsSumExactlyToRunTotal) {
  if (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  constexpr int kRequests = 2000;
  Runtime::Options options;
  options.worker_count = 2;
  options.quantum_us = 100.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) { SpinWithProbesUs(5.0); };
  Runtime runtime(options, callbacks);
  runtime.Start();
  MetricsSampler::Options sampler_options;
  sampler_options.window_ms = 2.0;
  MetricsSampler sampler(sampler_options, [&runtime] { return runtime.GetTelemetry(); });
  sampler.Start();
  // Driver loop in a test, not handler code. concord-lint: allow-no-probe
  for (int i = 0; i < kRequests; ++i) {
    while (!runtime.Submit(static_cast<std::uint64_t>(i), i % 4, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  const std::uint64_t completed = runtime.GetTelemetry().RequestsCompleted();
  sampler.Stop();
  runtime.Shutdown();

  ASSERT_EQ(completed, static_cast<std::uint64_t>(kRequests));
  const std::vector<MetricsWindow> windows = sampler.Windows();
  ASSERT_FALSE(windows.empty());
  EXPECT_EQ(sampler.dropped_windows(), 0u);
  std::uint64_t summed = 0;
  std::uint64_t slowdown_samples = 0;
  for (const MetricsWindow& window : windows) {
    summed += window.completed;
    slowdown_samples += window.slowdown_samples;
    if (window.slowdown_samples > 0) {
      EXPECT_GE(window.slowdown_p50, 1.0);  // slowdown is clamped >= 1
      EXPECT_GE(window.slowdown_p999, window.slowdown_p50);
    }
  }
  // The identity the CI trace job asserts to 1%: counter diffs with a final
  // partial-window flush make it exact here.
  EXPECT_EQ(summed, completed);
  // Scored lifecycles are bounded by completions; anything evicted before
  // scoring is counted, not silently skipped.
  EXPECT_LE(slowdown_samples + sampler.missed_lifecycles(), completed);
}

// One slowdown definition: each window's quantiles are exactly those of
// max(1, (complete_tsc - arrival_tsc) / service_tsc) over the lifecycles appended
// during that window, recomputed here from the same snapshots on a
// preempting bimodal workload, and the subscribed flight recorder's
// /flightz view reports the same p99.
TEST(MetricsSamplerTest, WindowSlowdownIsLatencyOverServiceOfItsFreshLifecycles) {
  if (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  constexpr int kRequests = 2000;
  Runtime::Options options;
  options.worker_count = 2;
  options.quantum_us = 10.0;  // the 100 us requests are preempted
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView& view) {
    SpinWithProbesUs(view.request_class == 1 ? 100.0 : 1.0);
  };
  Runtime runtime(options, callbacks);
  runtime.Start();

  // Offline recomputation, fed by every snapshot the sampler takes: the
  // first is the baseline, each later one closes a window. Only the sampler
  // calls this, on its thread or (final flush) after joining it.
  std::vector<Histogram> offline;
  std::uint64_t offline_appends = 0;
  bool baseline = true;
  const auto snapshot = [&] {
    telemetry::TelemetrySnapshot current = runtime.GetTelemetry();
    const std::uint64_t appends =
        current.dispatcher.events_drained + current.dispatcher.requests_completed;
    if (!baseline) {
      const std::size_t size = current.lifecycles.size();
      const std::size_t fresh =
          std::min<std::size_t>(static_cast<std::size_t>(appends - offline_appends), size);
      Histogram slowdowns;
      for (std::size_t i = size - fresh; i < size; ++i) {
        const telemetry::RequestLifecycle& lc = current.lifecycles[i];
        if (lc.complete_tsc > lc.arrival_tsc && lc.service_tsc > 0) {
          slowdowns.Record(std::max(static_cast<double>(lc.complete_tsc - lc.arrival_tsc) /
                                        static_cast<double>(lc.service_tsc),
                                    1.0));
        }
      }
      offline.push_back(slowdowns);
    }
    baseline = false;
    offline_appends = appends;
    return current;
  };
  FlightRecorder recorder(FlightRecorderOptions{});
  MetricsSampler::Options sampler_options;
  sampler_options.window_ms = 2.0;
  MetricsSampler sampler(sampler_options, snapshot, &recorder);
  sampler.Start();
  // Driver loop in a test, not handler code. concord-lint: allow-no-probe
  for (int i = 0; i < kRequests; ++i) {
    while (!runtime.Submit(static_cast<std::uint64_t>(i), i % 10 == 9 ? 1 : 0, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  sampler.Stop();
  runtime.Shutdown();

  const std::vector<MetricsWindow> windows = sampler.Windows();
  ASSERT_EQ(windows.size(), offline.size());
  ASSERT_EQ(sampler.missed_lifecycles(), 0u);
  std::uint64_t scored = 0;
  std::uint64_t yields = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].slowdown_samples, offline[w].Count()) << "window " << w;
    EXPECT_DOUBLE_EQ(windows[w].slowdown_p50, offline[w].Quantile(0.50)) << "window " << w;
    EXPECT_DOUBLE_EQ(windows[w].slowdown_p99, offline[w].Quantile(0.99)) << "window " << w;
    EXPECT_DOUBLE_EQ(windows[w].slowdown_p999, offline[w].Quantile(0.999)) << "window " << w;
    scored += windows[w].slowdown_samples;
    yields += windows[w].preempt_yields;
  }
  EXPECT_EQ(scored, static_cast<std::uint64_t>(kRequests)) << "every request is scored once";
  EXPECT_GT(yields, 0u) << "the bimodal workload must preempt";

  telemetry::JsonValue status;
  ASSERT_TRUE(telemetry::JsonValue::Parse(recorder.StatusJson(), &status));
  const telemetry::JsonValue* last_window = status.Get("last_window");
  ASSERT_NE(last_window, nullptr);
  ASSERT_NE(last_window->Get("p99_slowdown"), nullptr);
  EXPECT_DOUBLE_EQ(last_window->Get("p99_slowdown")->AsDouble(), windows.back().slowdown_p99);
}

TEST(MetricsSamplerTest, JsonSeriesAndPrometheusExpositionAreWellFormed) {
  if (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  Runtime::Options options;
  options.worker_count = 1;
  options.quantum_us = 100.0;
  Runtime::Callbacks callbacks;
  callbacks.handle_request = [](const RequestView&) { SpinWithProbesUs(2.0); };
  Runtime runtime(options, callbacks);
  runtime.Start();
  MetricsSampler::Options sampler_options;
  sampler_options.window_ms = 500.0;  // longer than the run: Stop() must flush
  sampler_options.exposition_path = ::testing::TempDir() + "concord_metrics_test.prom";
  MetricsSampler sampler(sampler_options, [&runtime] { return runtime.GetTelemetry(); });
  sampler.Start();
  // Driver loop in a test, not handler code. concord-lint: allow-no-probe
  for (int i = 0; i < 100; ++i) {
    while (!runtime.Submit(static_cast<std::uint64_t>(i), 0, nullptr)) {
      std::this_thread::yield();
    }
  }
  runtime.WaitIdle();
  sampler.Stop();
  runtime.Shutdown();

  // Stop() flushed the final partial window even though no tick elapsed.
  ASSERT_FALSE(sampler.Windows().empty());

  telemetry::JsonValue root;
  ASSERT_TRUE(telemetry::JsonValue::Parse(sampler.ToJsonSeries(), &root));
  ASSERT_NE(root.Get("schema"), nullptr);
  EXPECT_EQ(root.Get("schema")->AsString(), kMetricsSchema);
  const telemetry::JsonValue* windows = root.Get("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_TRUE(windows->is_array());
  EXPECT_EQ(windows->AsArray().size(), sampler.Windows().size());

  const std::string text = sampler.ToPrometheusText();
  EXPECT_NE(text.find("concord_requests_completed_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);

  std::ifstream exposition(sampler_options.exposition_path);
  ASSERT_TRUE(exposition.good()) << "exposition file not written";
  std::ostringstream contents;
  contents << exposition.rdbuf();
  EXPECT_NE(contents.str().find("concord_requests_completed_total"), std::string::npos);
}

}  // namespace
}  // namespace concord::trace
