// In-process closed-loop workloads (bimodal-closed, noop-closed): one
// generator thread keeps a fixed number of requests outstanding through
// ShardedRuntime::Submit and submits the next one on a slot as soon as the
// generator sees that slot's completion.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/cacheline.h"
#include "src/common/cycles.h"
#include "src/runtime/policy.h"
#include "src/runtime/sharded_runtime.h"
#include "src/runtime/spsc_ring.h"

namespace perfbench {
namespace {

// Bimodal(50:1us, 50:100us): class 0 short, class 1 long (paper Fig. 6).
constexpr double kDemandUs[2] = {1.0, 100.0};
// The empty handler has no work of its own, so its declared demand is the
// per-request cost of the pipeline, measured once on the reference host (a
// 4-vCPU Sapphire Rapids KVM guest): one dispatcher completes about 0.95 M
// empty requests per second there, about 1 us each. Slowdown then scales
// latency by a constant.
constexpr double kNoopDemandUs = 1.0;
constexpr std::uint64_t kClassSeed[2] = {0x5eed0001, 0x5eed0002};

// One outstanding request. The generator owns the slot between completions;
// the worker writes the handler stamps and result, the dispatcher writes
// t_complete, and the done ring's release/acquire hands them back.
struct alignas(concord::kCacheLineSize) Slot {
  std::uint64_t id = 0;
  int request_class = 0;
  std::uint64_t t_send = 0;       // generator, before Submit
  std::uint64_t t_submitted = 0;  // generator, after Submit returned
  std::uint64_t t_entry = 0;      // worker, handler entry
  std::uint64_t t_exit = 0;       // worker, handler exit
  std::uint64_t t_complete = 0;   // dispatcher, on_complete
  std::uint64_t result = 0;
};

}  // namespace

WorkloadResult RunInProcess(const InProcessSpec& spec, const RunConfig& config) {
  WorkloadResult result;
  const int n = spec.outstanding;
  const bool traced = config.traced;
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  concord::SpscRing<std::uint64_t> done(static_cast<std::size_t>(n));
  std::atomic<std::uint64_t> done_overflow{0};

  std::uint64_t iterations[2] = {fixed_work::IterationsFor(kDemandUs[0]),
                                 fixed_work::IterationsFor(kDemandUs[1])};
  const std::uint64_t expected[2] = {fixed_work::Run(iterations[0], kClassSeed[0]),
                                     fixed_work::Run(iterations[1], kClassSeed[1])};
  if (config.fault == Fault::kShortWork) {
    iterations[1] /= 2;
  }
  // Drops slot 3's eleventh completion, well after the prefill.
  const std::uint64_t drop_id = config.fault == Fault::kDropCompletion
                                    ? static_cast<std::uint64_t>(n) * 10 + 3
                                    : std::numeric_limits<std::uint64_t>::max();

  concord::Runtime::Callbacks callbacks;
  callbacks.handle_request = [&](const concord::RequestView& view) {
    Slot* slot = static_cast<Slot*>(view.payload);
    if (traced) {
      slot->t_entry = concord::ReadTsc();
    }
    if (spec.bimodal) {
      const auto cls = static_cast<std::size_t>(view.request_class);
      slot->result = fixed_work::Run(iterations[cls], kClassSeed[cls]);
    }
    if (traced) {
      slot->t_exit = concord::ReadTsc();
    }
  };
  callbacks.on_complete = [&](const concord::RequestView& view, std::uint64_t) {
    if (traced) {
      static_cast<Slot*>(view.payload)->t_complete = concord::ReadTsc();
    }
    if (view.id == drop_id) {
      return;
    }
    if (!done.TryPush(view.id)) {
      done_overflow.fetch_add(1, std::memory_order_relaxed);
    }
  };

  concord::ShardedRuntime::Options options;
  options.shard.worker_count = spec.workers;
  options.shard.quantum_us = 5.0;
  options.shard.policy = concord::PolicyKind::kConcordJbsq;
  options.shard_count = 1;

  std::vector<double> setup_times;
  std::unique_ptr<concord::ShardedRuntime> runtime;
  for (int i = 0; i < config.setup_repeats; ++i) {
    if (runtime != nullptr) {
      runtime->Shutdown();
      runtime.reset();
    }
    const auto start = std::chrono::steady_clock::now();
    runtime = std::make_unique<concord::ShardedRuntime>(options, callbacks);
    runtime->Start();
    setup_times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  result.setup_s = Median(setup_times);
  result.notes.emplace_back("pinned", runtime->placement_plan().pinned ? "yes" : "no");

  SetTscGhz(runtime->tsc_ghz());
  const double ghz = TscGhz();
  const auto ticks = [ghz](double s) { return static_cast<std::uint64_t>(s * 1e9 * ghz); };
  std::mt19937_64 rng(config.seed);
  ExactlyOnce seen;
  std::vector<std::uint64_t> next_id(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    next_id[static_cast<std::size_t>(s)] = static_cast<std::uint64_t>(s);
  }
  std::uint64_t rejected = 0;
  std::uint64_t submitted = 0;
  int in_flight = 0;
  const auto submit = [&](std::size_t s) {
    Slot& slot = slots[s];
    slot.id = next_id[s];
    next_id[s] += static_cast<std::uint64_t>(n);
    slot.request_class = spec.bimodal ? static_cast<int>(rng() & 1) : 0;
    ++result.attempted;
    slot.t_send = concord::ReadTsc();
    while (!runtime->Submit(slot.id, slot.request_class, &slot)) {
      ++rejected;
      ++result.attempted;
      concord::CpuRelax();
    }
    if (traced) {
      slot.t_submitted = concord::ReadTsc();
    }
    ++submitted;
    ++in_flight;
  };

  SpanSet spans;
  std::uint64_t wrong_id = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t wrong_work = 0;

  const StealMeter steal;
  const concord::telemetry::TelemetrySnapshot before = runtime->GetTelemetry();
  const std::uint64_t t_start = concord::ReadTsc();
  const std::uint64_t w0 = t_start + ticks(WarmupSeconds(config.seconds));
  const std::uint64_t w1 = w0 + ticks(config.seconds);
  const std::uint64_t give_up = w1 + ticks(kDrainSeconds);
  // Bimodal latency is the short class's: the overall median of a 50:50
  // mix sits on the gap between the modes.
  ClientWindows latency(
      w0, config.seconds,
      spec.bimodal ? std::vector<double>{kDemandUs[0], kDemandUs[1]}
                   : std::vector<double>{kNoopDemandUs},
      spec.bimodal ? std::vector<bool>{true, false} : std::vector<bool>{true});
  for (int s = 0; s < n; ++s) {
    submit(static_cast<std::size_t>(s));
  }
  while (in_flight > 0) {
    std::uint64_t id = 0;
    if (!done.TryPop(&id)) {
      const std::uint64_t now = concord::ReadTsc();
      latency.Tick(now);
      if (now > give_up) {
        break;
      }
      concord::CpuRelax();
      continue;
    }
    const std::uint64_t t_seen = concord::ReadTsc();
    --in_flight;
    const auto s = static_cast<std::size_t>(id % static_cast<std::uint64_t>(n));
    Slot& slot = slots[s];
    if (id != slot.id) {
      ++wrong_id;
      continue;
    }
    if (!seen.Mark(id)) {
      ++duplicates;
      continue;
    }
    const auto cls = static_cast<std::size_t>(slot.request_class);
    if (spec.bimodal && slot.result != expected[cls]) {
      ++wrong_work;
    }
    latency.Complete(t_seen);
    if (slot.t_send >= w0 && slot.t_send < w1) {
      latency.Add(slot.t_send, cls, TscToUs(t_seen - slot.t_send));
      if (traced) {
        // Handler entry can precede Submit's return: the boundary between
        // the submit and wait spans is whichever came first.
        const std::uint64_t boundary = std::min(slot.t_submitted, slot.t_entry);
        const std::uint64_t stamps[] = {slot.t_send, boundary,          slot.t_entry,
                                        slot.t_exit, slot.t_complete, t_seen};
        if (spans.CheckPartition(stamps, &result)) {
          spans.Add(Span::kSubmitNs, TscToUs(boundary - slot.t_send) * 1000.0);
          spans.Add(Span::kDispatchWait, TscToUs(slot.t_entry - boundary));
          spans.Add(cls == 0 ? Span::kRunC0 : Span::kRunC1, TscToUs(slot.t_exit - slot.t_entry));
          spans.Add(Span::kCompletionWait, TscToUs(slot.t_complete - slot.t_exit));
          spans.Add(Span::kPickup, TscToUs(t_seen - slot.t_complete));
        }
      }
    }
    if (t_seen < w1) {
      submit(s);
    }
  }
  const double steal_ratio = steal.StealRatioSinceStart();
  const concord::telemetry::TelemetrySnapshot after = runtime->GetTelemetry();
  runtime->Shutdown();
  const concord::Runtime::Stats stats = runtime->GetStats();

  result.Fail("submit rejected by ingress backpressure", rejected);
  result.Fail("completion for an id not in flight on its slot", wrong_id);
  result.Fail("duplicate completion", duplicates);
  result.Fail("handler returned a wrong work checksum", wrong_work);
  result.Fail("completion lost (not seen within the drain bound)",
              static_cast<std::uint64_t>(in_flight));
  result.Fail("completion ring overflow", done_overflow.load());
  if (stats.submitted != submitted || stats.completed != submitted) {
    result.Fail("runtime stats disagree with the generator (submitted " +
                std::to_string(stats.submitted) + ", completed " +
                std::to_string(stats.completed) + ", generator " + std::to_string(submitted) +
                ")");
  }

  latency.Report(&result);

  RuntimeCounters counters = RuntimeCounters::FromTelemetry(before, after);
  counters.long_demand_us = spec.bimodal ? kDemandUs[1] : 0.0;
  counters.steal_ratio = steal_ratio;
  counters.work_rate = config.host_work_rate;
  ReportPerLayer(spans, counters, NetCounters{}, &result);
  return result;
}

}  // namespace perfbench
