// Runtime lifecycle and public API. The dispatcher loop lives in
// dispatch.cc, the worker loop in worker.cc, the submitter-side ingress in
// ingress.cc (docs/architecture.md).

#include "src/runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "src/common/alloc_hooks.h"
#include "src/common/backoff.h"
#include "src/common/cpu.h"
#include "src/common/cycles.h"
#include "src/common/logging.h"
#include "src/runtime/instrument.h"

namespace concord {

namespace {

// Cacheline placement audit: the structures two threads touch concurrently
// must keep their independently-written words on distinct lines, or the
// coherence traffic JBSQ exists to avoid (§3.2) comes back through layout.
static_assert(alignof(SignalLine) == kCacheLineSize, "signal line must own its cache line");
static_assert(sizeof(SignalLine) == kCacheLineSize, "signal line must fill its cache line");
static_assert(alignof(CacheLineAligned<std::atomic<std::uint64_t>>) == kCacheLineSize,
              "worker status words must not share lines");
static_assert(alignof(telemetry::WorkerCounters) == kCacheLineSize,
              "worker counters must start on a line boundary");
static_assert(alignof(telemetry::DispatcherWorkerCounters) == kCacheLineSize,
              "dispatcher-written per-worker counters must not share the workers' lines");
static_assert(alignof(telemetry::DispatcherCounters) == kCacheLineSize,
              "dispatcher counters must start on a line boundary");
// The split writer domains inside shared structs (tests/alignment_audit_test
// re-checks these and the field-level offsets at runtime):
static_assert(alignof(ProducerSlot) == kCacheLineSize,
              "producer slots must start on a line boundary so their aligned words hold");
static_assert(offsetof(telemetry::DispatcherCounters, ingress_rejected) % kCacheLineSize == 0,
              "submitter-written dispatcher counters must own their line");

}  // namespace

Runtime::Runtime(Options options, Callbacks callbacks)
    : options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      ingress_(this, options_.ingress_capacity, &dispatcher_telemetry_,
               options_.huge_page_slabs) {
  CONCORD_CHECK(options_.worker_count >= 1) << "need at least one worker";
  CONCORD_CHECK(options_.worker_cpus.empty() ||
                options_.worker_cpus.size() == static_cast<std::size_t>(options_.worker_count))
      << "worker_cpus must be empty or have one entry per worker";
  CONCORD_CHECK(options_.jbsq_depth >= 1) << "JBSQ depth must be >= 1";
  CONCORD_CHECK(options_.quantum_us > 0.0) << "quantum must be positive";
  CONCORD_CHECK(options_.ingress_capacity >= 1) << "ingress capacity must be positive";
  CONCORD_CHECK(callbacks_.handle_request != nullptr) << "handle_request is required";
}

Runtime::~Runtime() {
  // Relaxed: these flags only guard against API misuse from the owning
  // thread; the destructor races with nothing, so no publication edge is
  // needed (the real teardown ordering is Shutdown's join).
  if (started_.load(std::memory_order_relaxed) && !stop_.load(std::memory_order_relaxed)) {
    Shutdown();
  }
}

double Runtime::MeasureTscGhz() {
  const auto start_time = std::chrono::steady_clock::now();
  const std::uint64_t start_tsc = ReadTsc();
  // 20ms calibration window.
  // concord-lint: allow-no-probe (startup calibration, runs before any request)
  for (;;) {
    const auto elapsed = std::chrono::steady_clock::now() - start_time;
    if (elapsed >= std::chrono::milliseconds(20)) {
      const std::uint64_t tsc_delta = ReadTsc() - start_tsc;
      const double ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
      return static_cast<double>(tsc_delta) / ns;
    }
    CpuRelax();
  }
}

// concord-lint: allow-no-probe (startup path, no request in flight yet)
void Runtime::Start() {
  // Relaxed: started_ is a misuse guard, not a publication edge — everything
  // Start() initializes is published to the loops by std::thread creation,
  // which already carries happens-before. The exchange stays atomic, so a
  // racing double Start() is still detected.
  CONCORD_CHECK(!started_.exchange(true, std::memory_order_relaxed)) << "runtime already started";
  tsc_ghz_ = MeasureTscGhz();
  quantum_tsc_ = static_cast<std::uint64_t>(options_.quantum_us * 1000.0 * tsc_ghz_);

  // One policy consultation; the dispatch and worker loops read only the
  // cached plain fields from here on (policy.h).
  policy_ = MakeSchedulingPolicy(options_.policy);
  effective_depth_ = policy_->WorkerQueueDepth(options_.jbsq_depth);
  CONCORD_CHECK(effective_depth_ >= 1) << "policy returned a non-positive queue depth";
  preempt_mode_ = policy_->preempt_mode();
  work_conserving_ =
      policy_->AllowWorkConservingDispatcher(options_.work_conserving_dispatcher);
  const double preempt_cost_us = policy_->PreemptCostUs(options_.preempt_cost_us);
  preempt_cost_tsc_ =
      preempt_cost_us > 0.0
          ? static_cast<std::uint64_t>(preempt_cost_us * 1000.0 * tsc_ghz_)
          : 0;
  queue_order_ = policy_->queue_order();
  adaptive_quantum_ = policy_->AdaptiveQuantum();
  srpt_estimate_tsc_.fill(0);
  service_floor_tsc_.fill(0);
  current_quantum_tsc_.store(quantum_tsc_, std::memory_order_relaxed);
  for (std::size_t i = 0; i < slack_bucket_limit_tsc_.size(); ++i) {
    slack_bucket_limit_tsc_[i] = static_cast<std::uint64_t>(
        static_cast<double>(telemetry::kSlackBucketLimitNs[i]) * tsc_ghz_);
  }
  if (adaptive_quantum_) {
    CONCORD_CHECK(options_.adaptive_step > 1.0) << "adaptive step must exceed 1";
    CONCORD_CHECK(options_.adaptive_span >= 1.0) << "adaptive span must be >= 1";
    adaptive_window_tsc_ =
        static_cast<std::uint64_t>(options_.adaptive_window_us * 1000.0 * tsc_ghz_);
    quantum_min_tsc_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(quantum_tsc_) / options_.adaptive_span));
    quantum_max_tsc_ =
        static_cast<std::uint64_t>(static_cast<double>(quantum_tsc_) * options_.adaptive_span);
    adaptive_slowdowns_.reserve(4096);
  }

  if (callbacks_.setup) {
    callbacks_.setup();
  }

  tracing_ = telemetry::kEnabled && options_.trace_buffer_capacity > 0;
  const std::size_t trace_ring_capacity =
      tracing_ ? std::max<std::size_t>(std::size_t{1}, options_.trace_ring_capacity)
               : std::size_t{1};
  if (tracing_) {
    trace_collector_ = std::make_unique<trace::TraceCollector>(options_.worker_count,
                                                               options_.trace_buffer_capacity);
    trace_scratch_.reserve(1024);
  }
  workers_.reserve(static_cast<std::size_t>(options_.worker_count));
  jbsq_stage_.resize(static_cast<std::size_t>(options_.worker_count));
  // concord-lint: allow-no-probe (startup path, runs before any request exists)
  for (int i = 0; i < options_.worker_count; ++i) {
    workers_.push_back(std::make_unique<WorkerShared>(
        static_cast<std::size_t>(effective_depth_), trace_ring_capacity));
    dispatcher_worker_telemetry_.push_back(
        std::make_unique<telemetry::DispatcherWorkerCounters>());
    jbsq_stage_[static_cast<std::size_t>(i)].reserve(
        static_cast<std::size_t>(effective_depth_));
  }
  outstanding_.assign(static_cast<std::size_t>(options_.worker_count), 0);
  signaled_generation_.assign(static_cast<std::size_t>(options_.worker_count), 0);
  // Preallocate the hot-path scratch so steady-state dispatch never grows a
  // container (docs/runtime.md, zero-allocation guarantee).
  ingress_scratch_.resize(kIngressDrainBatch);
  outbox_scratch_.resize(2 * static_cast<std::size_t>(effective_depth_) + 8);
  if constexpr (telemetry::kEnabled) {
    // Fixed-size circular buffer (may be 0: every append then counts as
    // dropped, matching a zero-capacity bounded history).
    lifecycle_history_.resize(options_.telemetry_history_capacity);
  }
  fiber_free_list_.reserve(64);
  fiber_storage_.reserve(64);

  // Thread placement: explicit per-thread CPUs (a topology PlacementPlan —
  // see src/common/topology.h and ShardedRuntime) win; otherwise
  // pin_threads falls back to the legacy consecutive packing, skipped
  // gracefully when the host has too few cores. Pinning stays best-effort:
  // a failed affinity call leaves the thread unpinned and the runtime
  // functionally unchanged.
  int dispatcher_cpu = options_.dispatcher_cpu;
  std::vector<int> worker_cpus = options_.worker_cpus;
  worker_cpus.resize(static_cast<std::size_t>(options_.worker_count), -1);
  const bool explicit_placement =
      dispatcher_cpu >= 0 ||
      std::any_of(worker_cpus.begin(), worker_cpus.end(), [](int cpu) { return cpu >= 0; });
  if (!explicit_placement && options_.pin_threads &&
      AvailableCpuCount() > options_.worker_count) {
    dispatcher_cpu = 0;
    for (int i = 0; i < options_.worker_count; ++i) {
      worker_cpus[static_cast<std::size_t>(i)] = 1 + i;
    }
  }
  threads_.emplace_back([this, dispatcher_cpu] {
    if (dispatcher_cpu >= 0) {
      PinThisThreadToCpu(dispatcher_cpu);
    }
    DispatcherLoop();
  });
  // concord-lint: allow-no-probe (startup path, runs before any request exists)
  for (int i = 0; i < options_.worker_count; ++i) {
    const int worker_cpu = worker_cpus[static_cast<std::size_t>(i)];
    threads_.emplace_back([this, i, worker_cpu] {
      if (worker_cpu >= 0) {
        PinThisThreadToCpu(worker_cpu);
      }
      WorkerLoop(i);
    });
  }
}

// concord-lint: allow-no-probe (submitter-side path; delegates to the lock-free ingress layer)
bool Runtime::Submit(std::uint64_t id, int request_class, void* payload) {
  // Relaxed misuse guard (see ~Runtime); Submit's real ordering lives in the
  // ingress layer's claim/handshake protocols.
  CONCORD_CHECK(started_.load(std::memory_order_relaxed)) << "runtime not started";
  if (!ingress_.Submit(id, request_class, payload)) {
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// concord-lint: allow-no-probe (submitter-side path; delegates to the lock-free ingress layer)
bool Runtime::Submit(std::uint64_t id, int request_class, void* payload, double deadline_us) {
  CONCORD_CHECK(started_.load(std::memory_order_relaxed)) << "runtime not started";
  const std::uint64_t deadline_delta_tsc =
      deadline_us > 0.0 ? static_cast<std::uint64_t>(deadline_us * 1000.0 * tsc_ghz_) : 0;
  if (!ingress_.Submit(id, request_class, payload, deadline_delta_tsc)) {
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

RequestSource Runtime::BindSource() {
  CONCORD_CHECK(started_.load(std::memory_order_relaxed)) << "runtime not started";
  ProducerSlot* slot = ingress_.ClaimSlot();
  if (slot == nullptr) {
    return RequestSource();  // stopped before the source could register
  }
  return RequestSource(this, slot);
}

// concord-lint: allow-no-probe (submitter-side path; delegates to the lock-free ingress layer)
bool RequestSource::Submit(std::uint64_t id, int request_class, void* payload,
                           double deadline_us) {
  if (slot_ == nullptr) {
    return false;
  }
  const std::uint64_t deadline_delta_tsc =
      deadline_us > 0.0 ? static_cast<std::uint64_t>(deadline_us * 1000.0 * runtime_->tsc_ghz_)
                        : 0;
  if (!runtime_->ingress_.SubmitViaSlot(slot_, id, request_class, payload, deadline_delta_tsc)) {
    return false;
  }
  runtime_->submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RequestSource::Release() {
  if (slot_ == nullptr) {
    return;
  }
  runtime_->ingress_.ReleaseSlot(slot_);
  runtime_ = nullptr;
  slot_ = nullptr;
}

void Runtime::WaitIdle() {
  // The acquire on completed_ pairs with the dispatcher's release bump
  // (BumpSingleWriter in RetireRequest), publishing every handler effect to
  // the waiter. submitted_ is relaxed: it is bumped by the submitting
  // threads themselves, whose submissions the caller already ordered before
  // this wait, so no extra edge is bought by acquiring it.
  while (completed_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
}

void Runtime::StopAccepting() { ingress_.StopAccepting(); }

void Runtime::Shutdown() {
  // Relaxed misuse guard (see ~Runtime).
  if (!started_.load(std::memory_order_relaxed)) {
    return;
  }
  // Phase 1: refuse new work, so racing submitters observe `false` instead
  // of stranding requests behind the drain (regression: submit-during-stop).
  ingress_.StopAccepting();
  // Phase 2: ask the dispatcher to drain to quiescence. It sets stop_ (the
  // workers' exit signal) itself once the central queue, worker queues and
  // ingress rings are empty and no Submit() is mid-push.
  drain_requested_.store(true, std::memory_order_release);
  for (std::thread& thread : threads_) {
    thread.join();
  }
  threads_.clear();
}

Runtime::Stats Runtime::GetStats() const {
  // Relaxed: a stats snapshot is racy by contract (telemetry.h) — each
  // counter is individually atomic, cross-counter identities hold only once
  // quiescent, and quiescence (WaitIdle/Shutdown) supplies the acquire edge.
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.preemptions = preemptions_.load(std::memory_order_relaxed);
  stats.dispatcher_started = dispatcher_started_count_.load(std::memory_order_relaxed);
  stats.dispatcher_completed = dispatcher_completed_count_.load(std::memory_order_relaxed);
  return stats;
}

telemetry::TelemetrySnapshot Runtime::GetTelemetry() const {
  telemetry::TelemetrySnapshot snapshot;
  snapshot.tsc_ghz = tsc_ghz_;
  snapshot.policy = PolicyKindName(options_.policy);
  snapshot.workers.resize(workers_.size());
  if constexpr (!telemetry::kEnabled) {
    return snapshot;  // enabled=false, all zeros
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    snapshot.workers[w] = telemetry::WorkerSnapshot::Capture(workers_[w]->counters,
                                                             *dispatcher_worker_telemetry_[w]);
  }
  // ring_dropped stays 0 by construction: lifecycles ride inside the request
  // object through the outbox, so there is no ring that could overflow.
  snapshot.dispatcher = telemetry::DispatcherSnapshot::Capture(dispatcher_telemetry_);
  snapshot.anatomy = telemetry::AnatomySnapshot::Capture(anatomy_telemetry_);
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    snapshot.lifecycles.reserve(lifecycle_history_count_);
    const std::size_t capacity = std::max<std::size_t>(lifecycle_history_.size(), 1);
    for (std::size_t i = 0; i < lifecycle_history_count_; ++i) {
      snapshot.lifecycles.push_back(lifecycle_history_[(lifecycle_history_head_ + i) % capacity]);
    }
  }
  return snapshot;
}

trace::TraceCapture Runtime::GetTrace() const {
  trace::TraceCapture capture;
  if (!tracing_) {
    return capture;  // enabled=false: tracing off or telemetry compiled out
  }
  capture = trace_collector_->Capture();
  capture.tsc_ghz = tsc_ghz_;
  capture.worker_count = options_.worker_count;
  // The *effective* depth: the offline analyzer checks JBSQ occupancy
  // against this bound, which for depth-1 policies is 1, not the configured
  // jbsq_depth.
  capture.jbsq_depth = effective_depth_;
  capture.quantum_us = options_.quantum_us;
  // The policy token, so offline checks can gate policy-specific invariants
  // (e.g. the EDF dispatch-ordering rule) on the right captures.
  capture.policy = PolicyKindName(options_.policy);
  return capture;
}

void Runtime::BeginAllocationAudit() {
  // Relaxed misuse guards (see ~Runtime); the audit's own ordering is the
  // epoch/ack handshake below.
  CONCORD_CHECK(started_.load(std::memory_order_relaxed) &&
                !stop_.load(std::memory_order_relaxed))
      << "allocation audit requires a running runtime";
  CONCORD_CHECK(alloc_audit_epoch_.load(std::memory_order_relaxed) % 2 == 0)
      << "allocation audit already armed";
  alloc_audit_ops_.store(0, std::memory_order_relaxed);
  alloc_audit_acks_.store(0, std::memory_order_relaxed);
  alloc_audit_epoch_.fetch_add(1, std::memory_order_release);  // even -> odd: armed
  const int loop_threads = options_.worker_count + 1;
  while (alloc_audit_acks_.load(std::memory_order_acquire) < loop_threads) {
    std::this_thread::yield();
  }
}

std::uint64_t Runtime::EndAllocationAudit() {
  CONCORD_CHECK(alloc_audit_epoch_.load(std::memory_order_relaxed) % 2 == 1)
      << "allocation audit not armed";
  alloc_audit_acks_.store(0, std::memory_order_relaxed);
  alloc_audit_epoch_.fetch_add(1, std::memory_order_release);  // odd -> even: disarm
  const int loop_threads = options_.worker_count + 1;
  while (alloc_audit_acks_.load(std::memory_order_acquire) < loop_threads) {
    std::this_thread::yield();
  }
  // Relaxed: every loop thread's final ops_ flush is sequenced before its
  // release ack bump, and the acquire ack-wait above synchronized with all
  // of them, so coherence already forces this read to see every flush.
  return alloc_audit_ops_.load(std::memory_order_relaxed);
}

// Called once per loop pass on the dispatcher and every worker. One relaxed
// load when no audit is active; during a window it folds the thread's
// heap-operation delta into the shared total.
void Runtime::PollAllocAudit(AllocAuditThreadState* state) {
  const std::uint64_t epoch = alloc_audit_epoch_.load(std::memory_order_acquire);
  if (epoch == state->epoch_seen) {
    if ((epoch & 1) != 0) {
      const std::uint64_t delta = ThreadAllocOps() - state->baseline;
      if (delta != state->reported) {
        alloc_audit_ops_.fetch_add(delta - state->reported, std::memory_order_relaxed);
        state->reported = delta;
      }
    }
    return;
  }
  // Window edge. Flush the closing armed window before re-baselining, so
  // EndAllocationAudit's ack-wait doubles as the final-flush barrier.
  if ((state->epoch_seen & 1) != 0) {
    const std::uint64_t delta = ThreadAllocOps() - state->baseline;
    if (delta != state->reported) {
      alloc_audit_ops_.fetch_add(delta - state->reported, std::memory_order_relaxed);
    }
  }
  state->epoch_seen = epoch;
  state->baseline = ThreadAllocOps();
  state->reported = 0;
  alloc_audit_acks_.fetch_add(1, std::memory_order_release);
}

Fiber* Runtime::AcquireFiber() {
  if (!fiber_free_list_.empty()) {
    Fiber* fiber = fiber_free_list_.back();
    fiber_free_list_.pop_back();
    return fiber;
  }
  fiber_storage_.push_back(std::make_unique<Fiber>(options_.fiber_stack_bytes));
  return fiber_storage_.back().get();
}

void Runtime::ReleaseFiber(Fiber* fiber) { fiber_free_list_.push_back(fiber); }

void Runtime::RunHandlerTrampoline(void* arg) {
  auto* request = static_cast<RuntimeRequest*>(arg);
  request->runtime->callbacks_.handle_request(
      RequestView{request->id, request->request_class, request->payload});
}

// Arms the request's fiber through the raw-pointer Reset: re-arming a pooled
// fiber for a pooled request touches no allocator regardless of the standard
// library's std::function small-object threshold.
void Runtime::ArmRequestFiber(RuntimeRequest* request) {
  request->fiber = AcquireFiber();
  request->fiber->Reset(&Runtime::RunHandlerTrampoline, request);
}

void Runtime::CompleteRequest(RuntimeRequest* request, bool on_dispatcher) {
  if constexpr (telemetry::kEnabled) {
    // Fold per-class service knowledge the dispatcher learns from this
    // completion: the approx-SRPT EWMA ordering key and the adaptive
    // controller's slowdown denominator. Dispatcher-owned plain fields —
    // completion is dispatcher-pinned — and gated off the default hot path.
    if (queue_order_ == SchedulingPolicy::QueueOrder::kShortestExpectedRemaining ||
        adaptive_quantum_) {
      const telemetry::RequestLifecycle& lc = request->lifecycle;
      if (lc.preemptions == 0 && lc.finish_tsc > lc.first_run_tsc && lc.first_run_tsc != 0) {
        const std::uint64_t service = lc.finish_tsc - lc.first_run_tsc;
        const std::size_t slot = static_cast<std::size_t>(std::clamp(
            request->request_class, 0, static_cast<int>(kServiceClassSlots) - 1));
        std::uint64_t& estimate = srpt_estimate_tsc_[slot];
        // Integer EWMA, alpha = 1/8; the first sample seeds directly.
        estimate = estimate == 0 ? service : estimate - estimate / 8 + service / 8;
        std::uint64_t& floor = service_floor_tsc_[slot];
        if (floor == 0 || service < floor) {
          floor = service;
        }
      }
      if (adaptive_quantum_) {
        AdaptiveQuantumOnCompletion(request, ReadTsc());
      }
    }
  }
  if (callbacks_.on_complete) {
    callbacks_.on_complete(RequestView{request->id, request->request_class, request->payload},
                           ReadTsc() - request->arrival_tsc);
  }
  // Pluggable sink seam (completion_sink.h): the network front-end routes
  // this completion back to the owning connection's event loop. One
  // predicted-not-taken branch when no sink is installed.
  if (callbacks_.completion_sink != nullptr) {
    callbacks_.completion_sink->OnComplete(
        RequestView{request->id, request->request_class, request->payload},
        ReadTsc() - request->arrival_tsc);
  }
  ReleaseFiber(request->fiber);
  request->fiber = nullptr;
  // Recycle to the owning producer slot. Cannot fail: the recycle ring holds
  // as many slots as the slab holds requests, and each request occupies at
  // most one place at a time.
  const bool recycled = request->home->recycle.TryPush(request);
  CONCORD_CHECK(recycled) << "recycle ring overflow: slab/ring capacity invariant broken";
  if (on_dispatcher) {
    telemetry::BumpSingleWriter(dispatcher_completed_count_);
  }
  telemetry::BumpSingleWriter(completed_, 1, std::memory_order_release);
}

// concord-lint: allow-no-probe (dispatcher-side bucket scan, bounded by telemetry::kSlackBuckets)
std::size_t Runtime::SlackBucket(std::uint64_t dispatch_tsc, std::uint64_t deadline_tsc) const {
  if (deadline_tsc <= dispatch_tsc) {
    return 0;  // dispatched at or past the deadline: negative slack
  }
  const std::uint64_t slack = deadline_tsc - dispatch_tsc;
  std::size_t bucket = 1;
  // concord-lint: allow-no-probe (bounded by telemetry::kSlackBuckets)
  while (bucket < telemetry::kSlackBuckets - 1 && slack >= slack_bucket_limit_tsc_[bucket - 1]) {
    ++bucket;
  }
  return bucket;
}

// Window fold + retune for the adaptive policy (dispatcher-only; called from
// CompleteRequest, so completion-pinning makes every field here
// single-threaded). Slowdown here is latency over the per-class minimum
// unpreempted service observed so far (service_floor_tsc_): an estimate of
// trace::MetricsSampler's exact latency / service_tsc that needs no
// per-request service stamp.
void Runtime::AdaptiveQuantumOnCompletion(RuntimeRequest* request, std::uint64_t now_tsc) {
  if (adaptive_window_start_tsc_ == 0) {
    adaptive_window_start_tsc_ = now_tsc;
  }
  const std::size_t slot = static_cast<std::size_t>(
      std::clamp(request->request_class, 0, static_cast<int>(kServiceClassSlots) - 1));
  const std::uint64_t floor = service_floor_tsc_[slot];
  if (floor != 0 && now_tsc > request->arrival_tsc &&
      adaptive_slowdowns_.size() < adaptive_slowdowns_.capacity()) {
    // Capacity-bounded push (preallocated at Start): an over-full window
    // keeps its first `capacity` samples, plenty for one control decision.
    adaptive_slowdowns_.push_back(static_cast<double>(now_tsc - request->arrival_tsc) /
                                  static_cast<double>(floor));
  }
  if (now_tsc - adaptive_window_start_tsc_ < adaptive_window_tsc_) {
    return;
  }
  // Window close. Too few samples make a p99 meaningless; skip the retune
  // but still roll the window.
  if (adaptive_slowdowns_.size() >= 16) {
    const std::size_t rank =
        std::min(adaptive_slowdowns_.size() - 1, (adaptive_slowdowns_.size() * 99) / 100);
    std::nth_element(adaptive_slowdowns_.begin(),
                     adaptive_slowdowns_.begin() + static_cast<std::ptrdiff_t>(rank),
                     adaptive_slowdowns_.end());
    const double p99 = adaptive_slowdowns_[rank];
    std::uint64_t next = quantum_tsc_;
    if (p99 > options_.adaptive_target_p99_slowdown) {
      // Tail too slow: preempt sooner so short requests overtake long ones.
      next = static_cast<std::uint64_t>(static_cast<double>(quantum_tsc_) /
                                        options_.adaptive_step);
    } else if (p99 < options_.adaptive_target_p99_slowdown * 0.5) {
      // Comfortably under target: lengthen the quantum, shedding preemption
      // overhead (LibPreemptible's economy direction).
      next = static_cast<std::uint64_t>(static_cast<double>(quantum_tsc_) *
                                        options_.adaptive_step);
    }
    next = std::clamp(next, quantum_min_tsc_, quantum_max_tsc_);
    if (next != quantum_tsc_) {
      quantum_tsc_ = next;
      current_quantum_tsc_.store(next, std::memory_order_relaxed);
      telemetry::BumpSingleWriter(dispatcher_telemetry_.quantum_retunes);
    }
  }
  adaptive_slowdowns_.clear();
  adaptive_window_start_tsc_ = now_tsc;
}

void Runtime::AppendLifecycle(const telemetry::RequestLifecycle& lifecycle) {
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  AppendLifecycleLocked(lifecycle);
}

// Circular append into the preallocated history (caller holds telemetry_mu_;
// no container growth on any path).
void Runtime::AppendLifecycleLocked(const telemetry::RequestLifecycle& lifecycle) {
  // Every completed request passes through here exactly once (worker path
  // via the outbox drain, dispatcher path via AppendLifecycle), so this is
  // the one fold point for the per-class anatomy histograms — unlike the
  // bounded history below, the anatomy aggregation never drops a request.
  anatomy_telemetry_.Record(telemetry::ComputeStageVector(lifecycle), lifecycle.request_class);
  const std::size_t capacity = lifecycle_history_.size();
  if (capacity == 0) {
    telemetry::BumpSingleWriter(dispatcher_telemetry_.history_dropped);
    return;
  }
  if (lifecycle_history_count_ == capacity) {
    // Full: overwrite the oldest. Wrap with a compare, not a modulo — the
    // capacity is a runtime option, so % here would be an integer division
    // on the dispatcher's per-completion path.
    lifecycle_history_[lifecycle_history_head_] = lifecycle;
    lifecycle_history_head_ = lifecycle_history_head_ + 1 == capacity ? 0 : lifecycle_history_head_ + 1;
    telemetry::BumpSingleWriter(dispatcher_telemetry_.history_dropped);
    return;
  }
  std::size_t tail = lifecycle_history_head_ + lifecycle_history_count_;
  if (tail >= capacity) {
    tail -= capacity;
  }
  lifecycle_history_[tail] = lifecycle;
  ++lifecycle_history_count_;
}

void SpinWithProbesUs(double us) {
  // Calibrate once; the loop condition re-reads the TSC every iteration.
  static const double ghz = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = ReadTsc();
    while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(5)) {
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return static_cast<double>(ReadTsc() - c0) / static_cast<double>(ns);
  }();
  const auto target = static_cast<std::uint64_t>(us * 1000.0 * ghz);
  const std::uint64_t start = ReadTsc();
  while (ReadTsc() - start < target) {
    CONCORD_PROBE_LOOP_BACKEDGE();
  }
}

}  // namespace concord
