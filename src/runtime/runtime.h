// The Concord runtime: dispatcher + workers with compiler-enforced
// cooperation, JBSQ(k) queues and a work-conserving dispatcher (§3, §4).
//
// This is the real, thread-based implementation of the paper's design. The
// application provides the three callbacks of §4.1 (setup, setup_worker,
// handle_request); its request-handling code is instrumented with
// CONCORD_PROBE() (see instrument.h), which stands in for the LLVM pass.
//
// The runtime is layered (docs/architecture.md); one Runtime instance wires
// the layers together around a SchedulingPolicy:
//
//   IngressLayer (src/runtime/ingress.h)    lock-free per-producer lanes
//   CentralQueue (src/runtime/central_queue.h)  intrusive dispatcher FIFO
//   SchedulingPolicy (src/runtime/policy.h) queue depth / preemption mode
//   WorkerShared (src/runtime/worker.h)     JBSQ inbox, outbox, signal line
//   dispatch loop (src/runtime/dispatch.cc) policy-agnostic placement
//   worker loop (src/runtime/worker.cc)     fiber execution + probe yields
//
// Data paths:
//   submitters --(per-producer SPSC ingress rings)--> dispatcher
//   --(per-worker SPSC inboxes, depth k)--> workers --(SPSC outboxes:
//   finished + preempted)--> dispatcher --(per-producer SPSC recycle
//   rings)--> submitters
//
// Preemption: each worker publishes (generation, start timestamp) when it
// begins running a request. The dispatcher monitors elapsed time and, when
// the policy's preemption condition holds, writes the worker's dedicated
// signal cache line. The worker's next probe observes the signal and yields
// its fiber; the dispatcher re-places the preempted request on the central
// queue, from where any worker can resume it.
//
// Work conservation: when every inbox is full and un-started requests wait
// in the central queue, the dispatcher runs one itself under timer-based
// self-preemption; such a request is pinned to the dispatcher (§3.3).
//
// Policies are consulted once at Start() and cached into plain fields; with
// the default ConcordJbsq policy the hot path is unchanged from the
// pre-policy runtime (zero virtual calls, zero steady-state allocations).
// For multi-dispatcher execution see ShardedRuntime
// (src/runtime/sharded_runtime.h).

#ifndef CONCORD_SRC_RUNTIME_RUNTIME_H_
#define CONCORD_SRC_RUNTIME_RUNTIME_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/cacheline.h"
#include "src/runtime/central_queue.h"
#include "src/runtime/completion_sink.h"
#include "src/runtime/context.h"
#include "src/runtime/ingress.h"
#include "src/runtime/policy.h"
#include "src/runtime/request.h"
#include "src/runtime/spsc_ring.h"
#include "src/runtime/worker.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/collector.h"
#include "src/trace/trace_record.h"

namespace concord {

class RequestSource;

class Runtime {
 public:
  struct Options {
    int worker_count = 2;
    double quantum_us = 5.0;
    int jbsq_depth = 2;
    // Scheduling discipline (src/runtime/policy.h). The policy decides the
    // effective per-worker queue depth, the preemption mode and whether the
    // work-conserving dispatcher is allowed; ConcordJbsq preserves every
    // option below as configured.
    PolicyKind policy = PolicyKind::kConcordJbsq;
    // Modeled worker-side cost of honoring one preemption, in microseconds
    // (spun on the worker after a preempted segment). Negative selects the
    // policy default: 0 for ConcordJbsq/Fcfs, ~0.6us (the Shinjuku IPI
    // receive path, model/costs.h ipi_notify_ns) for SingleQueuePreemptive.
    double preempt_cost_us = -1.0;
    bool work_conserving_dispatcher = true;
    // Adaptive-quantum controller (PolicyKind::kConcordJbsqAdaptive only).
    // Each window the dispatcher folds completed-request slowdowns; if the
    // window p99 exceeds the target the quantum shrinks (preempt sooner), if
    // it undershoots the band the quantum grows (fewer preemption overheads),
    // multiplicatively by the step and clamped to [quantum_us / adaptive_span,
    // quantum_us * adaptive_span].
    double adaptive_target_p99_slowdown = 4.0;
    double adaptive_window_us = 10000.0;  // the default metrics-sampler window
    double adaptive_step = 1.25;
    double adaptive_span = 4.0;
    // Pin dispatcher/workers to consecutive CPUs (best effort; skipped when
    // the host has too few cores). Superseded by the explicit placement
    // below when a PlacementPlan assigned CPUs (src/common/topology.h).
    bool pin_threads = false;
    // Explicit CPU placement from a topology PlacementPlan. dispatcher_cpu
    // >= 0 pins the dispatcher thread; worker_cpus[i] >= 0 pins worker i
    // (when non-empty, the vector's size must equal worker_count). Explicit
    // assignments win over pin_threads' legacy consecutive packing; -1
    // entries leave that thread unpinned.
    int dispatcher_cpu = -1;
    std::vector<int> worker_cpus;
    // Preferred NUMA node for this runtime's memory (informational; slabs
    // are placed by first-touch from the submitting threads, so this is
    // recorded for diagnostics rather than enforced).
    int numa_node = -1;
    // Back producer request slabs with MADV_HUGEPAGE-advised mappings
    // (best-effort: falls back to normal pages, then to heap allocation,
    // when the kernel declines).
    bool huge_page_slabs = false;
    std::size_t fiber_stack_bytes = Fiber::kDefaultStackBytes;
    // Per-producer-thread capacity: each submitting thread's ingress ring,
    // recycle ring and request slab all hold this many requests, so a
    // producer can have at most `ingress_capacity` requests in flight and a
    // recycle push can never overflow.
    std::size_t ingress_capacity = 4096;
    // Telemetry sizing (ignored when CONCORD_TELEMETRY=OFF): the bounded
    // completed-request history the dispatcher maintains. Drops oldest on
    // overflow, with an exact counter. (Lifecycles need no ring of their
    // own: the record rides inside the request object, whose ownership the
    // outbox pop already transfers to the dispatcher.)
    std::size_t telemetry_history_capacity = 4096;
    // Scheduling-trace capture (docs/tracing.md). 0 disables tracing (the
    // default: no records, no rings, no collector); a positive value bounds
    // the in-memory record buffer, evicting oldest with exact drop counts.
    // Ignored when built with CONCORD_TELEMETRY=OFF.
    std::size_t trace_buffer_capacity = 0;
    // Per-worker trace ring slots (segment records in flight between a
    // worker and the dispatcher's drain). Drop-oldest, counted exactly.
    std::size_t trace_ring_capacity = 1024;
  };

  struct Callbacks {
    // Initializes global application state (paper: setup()).
    std::function<void()> setup;
    // Per-worker initialization (paper: setup_worker(core)). Worker ids are
    // 0..worker_count-1; the dispatcher calls it with -1 before stealing.
    std::function<void(int worker)> setup_worker;
    // Processes one request (paper: handle_request). Runs inside a fiber and
    // may be preempted at any CONCORD_PROBE() it executes.
    std::function<void(const RequestView&)> handle_request;
    // Completion notification, invoked on the dispatcher thread.
    std::function<void(const RequestView&, std::uint64_t latency_tsc)> on_complete;
    // Pluggable completion sink (src/runtime/completion_sink.h), invoked on
    // the dispatcher thread after on_complete. Not owned; must outlive the
    // runtime. nullptr (the default) keeps the completion path identical to
    // the pre-seam runtime: one predicted-not-taken branch.
    CompletionSink* completion_sink = nullptr;
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t dispatcher_started = 0;
    std::uint64_t dispatcher_completed = 0;
  };

  Runtime(Options options, Callbacks callbacks);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  // Spawns the dispatcher and worker threads (calls setup callbacks).
  void Start();

  // Enqueues a request. Thread-safe and lock-free: the calling thread's
  // producer slot is claimed on first use (the only Submit path that can
  // take a lock, and only for brand-new slot creation — never a lock the
  // dispatcher holds in steady state). Returns false on backpressure — this
  // thread's ingress ring is full or its request slab is exhausted — or once
  // shutdown has begun, without blocking (open-loop callers drop or retry).
  bool Submit(std::uint64_t id, int request_class, void* payload);

  // Deadline-carrying submit: identical to the three-argument form, plus an
  // absolute deadline `deadline_us` microseconds after the arrival stamp
  // (<= 0 means no deadline). EDF orders the central queue by it; every
  // policy records dispatch-time slack into the telemetry histogram when a
  // deadline is present.
  bool Submit(std::uint64_t id, int request_class, void* payload, double deadline_us);

  // Binds an explicit request source: claims a producer slot and wraps it in
  // a RequestSource handle that submits without the TLS lookup. The seam for
  // external producers (the epoll server binds one source per shard and
  // submits decoded frames through it). Returns an unbound source (operator
  // bool == false) once StopAccepting() has been called. The source must be
  // released/destroyed before this Runtime is destroyed.
  //
  // Threading: the slot's SPSC endpoints pin to the first thread that
  // submits through the source, so a source may be bound on one thread and
  // used on another — but a single source must never be driven from two
  // threads concurrently. One thread may own many sources (one per shard).
  RequestSource BindSource();

  // Blocks until every submitted request has completed.
  void WaitIdle();

  // First phase of Shutdown(), also usable alone: after this returns, every
  // future Submit() returns false and no racing Submit() can slip a request
  // past the shutdown drain (see IngressLayer's teardown handshake).
  void StopAccepting();

  // True until StopAccepting()/Shutdown(). A ShardedRuntime uses this to
  // route around independently stopped shards.
  bool accepting() const { return ingress_.accepting(); }

  // Stops accepting, drains every in-flight request (the dispatcher keeps
  // running until the central queue, worker queues and ingress rings are
  // empty and no Submit() is mid-push), then stops and joins all threads.
  // Safe to call while other threads are still calling Submit(): they
  // observe `false` rather than stranding requests.
  void Shutdown();

  Stats GetStats() const;

  // Approximate in-flight count (submitted - completed, relaxed loads):
  // the JSQ shard-placement signal.
  std::uint64_t InFlightApprox() const {
    return submitted_.load(std::memory_order_relaxed) -
           completed_.load(std::memory_order_relaxed);
  }

  // Mechanism-level counters and recent request lifecycles
  // (docs/telemetry.md). Counters are individually exact; cross-counter
  // invariants (e.g. honored <= requested) are exact once the runtime is
  // quiescent (after WaitIdle). Returns an all-zero snapshot with
  // enabled=false when built with CONCORD_TELEMETRY=OFF.
  telemetry::TelemetrySnapshot GetTelemetry() const;

  // True when scheduling-trace capture is active (telemetry compiled in and
  // Options::trace_buffer_capacity > 0).
  bool trace_enabled() const { return tracing_; }

  // Snapshot of the scheduling trace (docs/tracing.md). Complete — up to the
  // exactly-counted drops — once the runtime has shut down (the dispatcher's
  // final ring drain runs on exit); a mid-run call returns a consistent
  // partial capture. enabled=false when tracing is off.
  trace::TraceCapture GetTrace() const;

  // Measured TSC frequency used for quantum arithmetic.
  double tsc_ghz() const { return tsc_ghz_; }

  PolicyKind policy_kind() const { return options_.policy; }

  // The per-worker queue depth the active policy selected at Start()
  // (configured jbsq_depth for ConcordJbsq, 1 for the single-queue
  // policies). Valid after Start().
  int effective_jbsq_depth() const { return effective_depth_; }

  // The preemption quantum currently in force, in microseconds. Equals
  // Options::quantum_us except under the adaptive policy, where the
  // dispatcher retunes it; the mirror is updated only on retune (relaxed —
  // a monitoring read, exact once the runtime is quiescent).
  double current_quantum_us() const {
    return static_cast<double>(current_quantum_tsc_.load(std::memory_order_relaxed)) /
           (1000.0 * tsc_ghz_);
  }

  // Allocation-audit window (test hook; docs/runtime.md). Begin baselines a
  // per-thread heap-operation counter on the dispatcher and every worker,
  // End returns how many heap operations those threads performed inside the
  // window. Reads 0 unless the test binary installed counting operator
  // new/delete replacements that call NoteAllocOp() (common/alloc_hooks.h).
  // Both block until every loop thread has acknowledged the window edge, so
  // they must be called between Start() and Shutdown(), from one thread at
  // a time, never from a runtime callback.
  void BeginAllocationAudit();
  std::uint64_t EndAllocationAudit();

 private:
  friend class RequestSource;

  // Per-loop-thread allocation-audit state (see BeginAllocationAudit).
  struct AllocAuditThreadState {
    std::uint64_t epoch_seen = 0;
    std::uint64_t baseline = 0;
    std::uint64_t reported = 0;
  };

  void DispatcherLoop();
  void WorkerLoop(int worker_index);
  // Routes a request onto the central queue through the order cached at
  // Start(): PushBack on the FIFO path (every pre-existing policy — the
  // predicted branch is the whole cost), PushOrdered by deadline or by the
  // per-class EWMA service estimate for the ordered policies.
  void EnqueueCentral(RuntimeRequest* request);
  // Adaptive-quantum controller (dispatcher-only): folds one completed
  // request into the current window, and retunes quantum_tsc_ on window
  // close. No-ops unless the policy enabled AdaptiveQuantum().
  void AdaptiveQuantumOnCompletion(RuntimeRequest* request, std::uint64_t now_tsc);
  // Telemetry slack-histogram bucket for a deadline-carrying dispatch
  // (telemetry.h kSlackBuckets). Bounded scan over 6 precomputed TSC
  // thresholds; called only when a deadline is present.
  std::size_t SlackBucket(std::uint64_t dispatch_tsc, std::uint64_t deadline_tsc) const;
  void DrainIngress(bool* progress);
  void DrainOutboxes(bool* progress);
  void PushJbsq(bool* progress);
  void SendPreemptSignals();
  void MaybeRunAppRequest();
  void DrainTraceRings();
  bool ShutdownQuiescent();
  void AppendLifecycle(const telemetry::RequestLifecycle& lifecycle);
  void AppendLifecycleLocked(const telemetry::RequestLifecycle& lifecycle);
  void CompleteRequest(RuntimeRequest* request, bool on_dispatcher);
  void ArmRequestFiber(RuntimeRequest* request);
  static void RunHandlerTrampoline(void* arg);
  void PollAllocAudit(AllocAuditThreadState* state);
  Fiber* AcquireFiber();
  void ReleaseFiber(Fiber* fiber);

  static double MeasureTscGhz();

  // Requests adopted from one producer ring per dispatcher pass; bounds both
  // the scratch buffer and per-producer burst unfairness.
  static constexpr std::size_t kIngressDrainBatch = 128;

  Options options_;
  Callbacks callbacks_;
  double tsc_ghz_ = 0.0;
  std::uint64_t quantum_tsc_ = 0;

  // Policy decisions, cached at Start() so the dispatch loop reads plain
  // fields (zero virtual calls on the hot path).
  std::unique_ptr<SchedulingPolicy> policy_;
  int effective_depth_ = 1;
  SchedulingPolicy::PreemptMode preempt_mode_ = SchedulingPolicy::PreemptMode::kWhenWorkPending;
  std::uint64_t preempt_cost_tsc_ = 0;
  bool work_conserving_ = true;
  SchedulingPolicy::QueueOrder queue_order_ = SchedulingPolicy::QueueOrder::kFifo;
  bool adaptive_quantum_ = false;

  // Per-class state the dispatcher learns from completions, bounded by a
  // fixed slot count (classes beyond it share the last slot). All
  // dispatcher-owned plain fields.
  static constexpr std::size_t kServiceClassSlots = 64;
  // EWMA of unpreempted service time per class (TSC ticks; 0 = no sample
  // yet): the approx-SRPT ordering key.
  std::array<std::uint64_t, kServiceClassSlots> srpt_estimate_tsc_{};
  // Minimum unpreempted service per class (0 = none): the adaptive
  // controller's slowdown denominator. trace::MetricsSampler divides by each
  // request's exact service_tsc instead; the controller keeps this estimate
  // because a CONCORD_TELEMETRY=OFF build stamps no per-request service_tsc.
  // (CompleteRequest currently folds it, and runs the controller, only in
  // telemetry builds.)
  std::array<std::uint64_t, kServiceClassSlots> service_floor_tsc_{};

  // Adaptive-quantum controller state (dispatcher-owned; see Options).
  std::uint64_t adaptive_window_tsc_ = 0;
  std::uint64_t adaptive_window_start_tsc_ = 0;
  std::uint64_t quantum_min_tsc_ = 0;
  std::uint64_t quantum_max_tsc_ = 0;
  // Window slowdown samples; preallocated at Start, never grown (a window
  // with more completions than capacity keeps the first `capacity` — the
  // p99 of 4096 samples is estimate enough for a 10ms control decision).
  std::vector<double> adaptive_slowdowns_;
  // Monitoring mirror of quantum_tsc_ for current_quantum_us(); written
  // only at Start and on retune.
  std::atomic<std::uint64_t> current_quantum_tsc_{0};
  // telemetry::kSlackBucketLimitNs converted to TSC ticks at Start().
  std::array<std::uint64_t, telemetry::kSlackBuckets - 2> slack_bucket_limit_tsc_{};

  // Telemetry: dispatcher-written per-worker blocks (kept apart from the
  // worker-written WorkerCounters so the two writers never share a line),
  // dispatcher globals, and the bounded completed-lifecycle history (a
  // preallocated circular buffer: head is the oldest entry).
  std::vector<std::unique_ptr<telemetry::DispatcherWorkerCounters>> dispatcher_worker_telemetry_;
  telemetry::DispatcherCounters dispatcher_telemetry_;
  // Per-class latency-anatomy stage histograms, folded at lifecycle-append
  // time (dispatcher-only writer; anatomy.h).
  telemetry::AnatomyCounters anatomy_telemetry_;
  std::uint64_t dispatcher_probe_count_baseline_ = 0;  // dispatcher-owned fold state
  mutable std::mutex telemetry_mu_;  // guards lifecycle_history_*
  std::vector<telemetry::RequestLifecycle> lifecycle_history_;
  std::size_t lifecycle_history_head_ = 0;
  std::size_t lifecycle_history_count_ = 0;

  // Layers (docs/architecture.md). The ingress layer owns the producer
  // slots; the central queue and worker pool are dispatcher-owned.
  IngressLayer ingress_;
  CentralQueue central_;
  std::vector<std::unique_ptr<WorkerShared>> workers_;
  std::vector<int> outstanding_;        // per worker, dispatcher-owned
  std::vector<std::uint64_t> signaled_generation_;  // last preempt signal sent
  RuntimeRequest* dispatcher_request_ = nullptr;

  // Dispatcher-owned preallocated scratch (sized at Start; never grown on
  // the hot path): ingress drain batch, outbox drain batch, and per-worker
  // JBSQ staging used to publish each refill with one batched ring push.
  std::vector<RuntimeRequest*> ingress_scratch_;
  std::vector<RuntimeRequest*> outbox_scratch_;
  std::vector<std::vector<RuntimeRequest*>> jbsq_stage_;

  // Scheduling-trace capture (null unless tracing_; see Options).
  bool tracing_ = false;
  std::unique_ptr<trace::TraceCollector> trace_collector_;
  // Dispatcher-owned staging buffer: records accumulate lock-free during a
  // loop pass and reach the collector in one AppendAll per pass.
  std::vector<trace::TraceRecord> trace_scratch_;

  // Fiber pool (dispatcher-owned after start; grows to the in-flight
  // high-water mark, then steady state reuses).
  std::vector<std::unique_ptr<Fiber>> fiber_storage_;
  std::vector<Fiber*> fiber_free_list_;

  // Allocation-audit window (see BeginAllocationAudit): odd epoch = armed.
  std::atomic<std::uint64_t> alloc_audit_epoch_{0};
  std::atomic<std::uint64_t> alloc_audit_ops_{0};
  std::atomic<int> alloc_audit_acks_{0};

  std::vector<std::thread> threads_;
  std::atomic<bool> started_{false};
  // Shutdown sequencing: Shutdown() stops the ingress and requests a drain;
  // the dispatcher sets stop_ (which also releases the workers) only once
  // quiescent — central queue empty, nothing outstanding, no submitter
  // mid-push, ingress rings empty.
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_{false};

  // submitted_ is bumped by submitter threads on every accepted Submit();
  // completed_ and the three counters after it are dispatcher-written. Each
  // writer domain owns its cache line (audited by `ctest -L alignment`) so
  // submit-side increments never invalidate the line the dispatcher bumps
  // per completion — the same discipline as the telemetry counter blocks.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> submitted_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> preemptions_{0};
  std::atomic<std::uint64_t> dispatcher_started_count_{0};
  std::atomic<std::uint64_t> dispatcher_completed_count_{0};
};

// An explicit, movable submit handle over one claimed producer slot
// (docs/networking.md "source/sink seam"). Obtained from
// Runtime::BindSource(); submits through the same lock-free handshake as
// Runtime::Submit but without the per-call TLS slot lookup, which both
// shaves the fast path for tight submit loops and — more importantly —
// decouples slot ownership from thread identity: an event-loop thread can
// own one source per shard instead of leaking one TLS slot per (thread,
// runtime) pair.
//
// Move-only. Release() (or destruction) returns the slot for adoption by
// future claimants; the owning Runtime must still be alive at that point.
class RequestSource {
 public:
  RequestSource() = default;
  RequestSource(RequestSource&& other) noexcept
      : runtime_(other.runtime_), slot_(other.slot_) {
    other.runtime_ = nullptr;
    other.slot_ = nullptr;
  }
  RequestSource& operator=(RequestSource&& other) noexcept {
    if (this != &other) {
      Release();
      runtime_ = other.runtime_;
      slot_ = other.slot_;
      other.runtime_ = nullptr;
      other.slot_ = nullptr;
    }
    return *this;
  }
  RequestSource(const RequestSource&) = delete;
  RequestSource& operator=(const RequestSource&) = delete;
  ~RequestSource() { Release(); }

  // True when bound to a live slot (BindSource succeeded and Release has not
  // run).
  explicit operator bool() const { return slot_ != nullptr; }

  // Submits one request through the bound slot. Semantics match
  // Runtime::Submit: returns false on backpressure or once the runtime
  // stopped accepting, without blocking. deadline_us <= 0 means no deadline.
  // Must not race with other calls on the *same* source (single logical
  // producer per slot); distinct sources are independent.
  bool Submit(std::uint64_t id, int request_class, void* payload, double deadline_us = 0.0);

  // Returns the slot for adoption and unbinds. Safe to call repeatedly.
  void Release();

 private:
  friend class Runtime;
  RequestSource(Runtime* runtime, ProducerSlot* slot) : runtime_(runtime), slot_(slot) {}

  Runtime* runtime_ = nullptr;
  ProducerSlot* slot_ = nullptr;
};

// Spins for `us` microseconds of wall-clock time, executing a CONCORD_PROBE
// per iteration: the instrumented synthetic application of §5.1.
void SpinWithProbesUs(double us);

}  // namespace concord

#endif  // CONCORD_SRC_RUNTIME_RUNTIME_H_
