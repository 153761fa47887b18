#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/lifecycle/placement_index.hpp"
#include "core/metrics.hpp"
#include "core/recovery/crash.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/resilience/resilience.hpp"
#include "core/resilience/speculation.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "core/tenancy/multi_tenant_core.hpp"
#include "proto/channel.hpp"
#include "proto/drive.hpp"
#include "proto/fault.hpp"
#include "proto/message.hpp"
#include "proto/worker_agent.hpp"

namespace tora::util {
class ByteReader;
}  // namespace tora::util

namespace tora::proto {

/// The manager side of the protocol (paper Fig. 1's workflow manager + task
/// scheduler + bucketing manager): resolves dependencies, asks the
/// TaskAllocator for an allocation at dispatch time, matches tasks to
/// workers first-fit against the capacities they announced, and feeds
/// completed records back into the allocator. All worker interaction goes
/// through encoded protocol messages over the DuplexLinks.
///
/// This runtime is functional rather than timed — it validates the protocol
/// and the allocation logic end-to-end; the discrete-event simulator
/// (sim::Simulation) owns timing questions. The task state machine itself
/// (readiness, allocation caching, retry escalation, fatality cascades, the
/// waste/eviction accounting split) is core::lifecycle::DispatchCore,
/// shared verbatim with the simulator; this class contributes the wire
/// protocol, worker registry, and failure detectors.
///
/// Fault tolerance (see LivenessConfig in fault.hpp): every pump is one
/// tick of the failure-detection clock. Workers heartbeat each pump; a
/// worker silent beyond the window is declared dead and its in-flight tasks
/// are requeued AND charged as evictions — never as allocator waste,
/// matching the simulator's accounting split. Running attempts that produce
/// no result within the attempt timeout are abandoned and re-dispatched
/// under capped exponential backoff; a worker that keeps eating dispatches
/// (one-way severed link) is quarantined. Results are deduplicated by
/// (worker, task, attempt), so duplicated or stale messages can never
/// double-charge an attempt.
///
/// Crash safety (see core/recovery/ and docs/recovery.md): when a
/// RecoveryLog is attached, every pump write-ahead journals its
/// nondeterministic inputs — the tick boundary, each polled wire line
/// (BEFORE it is handled), and phase-completion markers — plus the
/// lifecycle audit records emitted through the DispatchCore hooks. The
/// journal is compacted into a durable snapshot (snapshot_body) on the
/// configured cadence. recover() rebuilds a freshly constructed manager
/// from snapshot + journal tail by replaying the real handlers with wire
/// sends suppressed, which reconstructs the pre-crash state bit-for-bit;
/// phases of the interrupted tick that never ran pre-crash then run once
/// with sends enabled. An attached CrashMonitor injects deterministic
/// ManagerCrash exceptions at the named pump/snapshot boundaries.
class ProtocolManager : private core::lifecycle::RuntimeHooks,
                        private core::lifecycle::DispatchDriver,
                        private core::resilience::SpeculationDriver {
  /// Drives the worker registry and place_worker directly: the differential
  /// placement test (tests/test_placement_index.cpp).
  friend struct PlacementTestPeer;

 public:
  /// Single-tenant with the pass-through arbiter — byte-identical wire and
  /// snapshot behavior to the pre-tenancy manager.
  ProtocolManager(std::span<const core::TaskSpec> tasks,
                  core::TaskAllocator& allocator,
                  std::vector<DuplexLinkPtr> links, LivenessConfig cfg = {});

  /// Multi-tenant: each tenant's workflow shares the worker pool through
  /// `arbiter`. Spans and allocators must outlive the manager.
  ProtocolManager(std::vector<core::tenancy::TenantInput> tenants,
                  std::vector<DuplexLinkPtr> links, LivenessConfig cfg,
                  std::unique_ptr<core::tenancy::Arbiter> arbiter);

  /// Enqueues every dependency-free task. Call once before pumping.
  void start();

  /// Advances one tick: reads all pending worker messages, runs the
  /// failure detectors, and dispatches queued tasks onto free workers.
  /// Returns the number of messages processed, heartbeats excluded (so a
  /// caller can use the return value as a completion-progress signal).
  std::size_t pump();

  /// True once every task is completed or fatal.
  bool done() const noexcept { return core_.done(); }

  /// True once start() ran (or was restored/replayed by recover()). False
  /// after recovering storage whose Started record never became durable —
  /// the caller must start() again.
  bool started() const noexcept { return started_; }

  /// Broadcasts Shutdown to every known worker.
  void shutdown_workers();

  const core::WasteAccounting& accounting() const noexcept {
    return core_.accounting();
  }
  std::size_t tasks_completed() const noexcept { return core_.completed(); }
  std::size_t tasks_fatal() const noexcept { return core_.fatal(); }
  std::size_t dispatches_sent() const noexcept { return dispatches_; }
  std::size_t workers_known() const noexcept { return workers_.size(); }
  /// Workers quarantined or serving a probation sentence.
  std::size_t workers_quarantined() const;
  /// Workers whose links pushed back in the last tick's sample.
  std::size_t workers_backpressured() const noexcept;
  std::size_t ticks() const noexcept { return tick_; }
  /// Anomaly counters: malformed lines, stale/duplicate results, timeouts,
  /// deaths, quarantines, evictions.
  const core::ChaosCounters& chaos() const noexcept { return chaos_; }
  /// Summed allocations of attempts lost to dead/quarantined workers — the
  /// protocol-level sibling of SimResult::evicted_alloc_seconds (the shared
  /// machine's eviction ledger, charged 1× the allocation per lost
  /// attempt). Kept OUT of the WasteAccounting: the algorithm did not cause
  /// those failures.
  const core::ResourceVector& evicted_alloc() const noexcept {
    return core_.evicted_alloc();
  }
  /// Resilience-layer activity counters (all zero when the layer is
  /// disabled). Speculative waste itself is a WasteAccounting column
  /// (accounting().breakdown(k).speculative).
  core::ResilienceCounters resilience() const noexcept {
    core::ResilienceCounters c = res_counters_;
    c.storms_entered = storms_.storms_entered();
    c.storms_exited = storms_.storms_exited();
    return c;
  }

  /// The speculation machine (diagnostics and invariant tests).
  const core::resilience::Speculation& speculation() const noexcept {
    return spec_;
  }

  /// What the degraded-mode gate counts: Running tasks plus live duplicates.
  std::size_t inflight() const noexcept {
    return core_.running_total() + spec_.live();
  }

  /// True while worker `wid` is registered.
  bool registered(std::uint64_t wid) const { return workers_.count(wid) != 0; }

  /// Tenant 0's lifecycle machine (parity tests and diagnostics; the whole
  /// machine at single-tenant).
  const core::lifecycle::DispatchCore& core() const noexcept {
    return core_.tenant_core(0);
  }

  /// The tenant facade (multi-tenant diagnostics and reporting).
  const core::tenancy::MultiTenantCore& tenants() const noexcept {
    return core_;
  }

  // --- crash recovery -----------------------------------------------------

  /// Attaches the durability machinery. `log` receives the write-ahead
  /// journal and snapshot rotations; `crashes` (nullable) arms the
  /// deterministic crash points; `counters` (nullable) observes journal and
  /// replay traffic. Attach before start() (or recover()) so the journal
  /// covers the whole life of the manager.
  void attach_recovery(core::recovery::RecoveryLog* log,
                       core::recovery::CrashMonitor* crashes,
                       core::recovery::RecoveryConfig recovery,
                       core::RecoveryCounters* counters);

  /// Serializes the manager's complete mutable state — allocator (with
  /// per-policy sampler state), lifecycle core, worker registry, per-task
  /// protocol state, quarantine set, chaos counters, tick — as the snapshot
  /// BODY (the RecoveryLog seals it). Doubles as a bit-exact state
  /// fingerprint for the crash/no-crash equality harness.
  std::string snapshot_body() const { return core::snapshot::to_bytes(*this); }

  /// The body's field list. The placement index is derived: the post-load
  /// step rebinds each worker's link and re-registers it. Speculation
  /// precedes the task states: its format mark refuses their count, which a
  /// build with the manager's own speculation fields wrote there.
  static constexpr auto fields() {
    using M = ProtocolManager;
    using core::snapshot::field, core::snapshot::kSameSize;
    return core::snapshot::section(
        "ProtocolManager", &M::after_load, field("core", &M::core_),
        field("tick", &M::tick_), field("dispatches", &M::dispatches_),
        field("started", &M::started_), field("workers", &M::workers_),
        field("speculation", &M::spec_),
        field("proto_states", &M::proto_states_, kSameSize),
        field("quarantined", &M::quarantined_, kSameSize),
        field("malformed_logged", &M::malformed_logged_, kSameSize),
        field("chaos", &M::chaos_), field("deadlines", &M::deadlines_),
        field("reliability", &M::reliability_), field("storms", &M::storms_),
        field("res_counters", &M::res_counters_),
        field("storage", &M::storage_), field("term", &M::term_));
  }

  /// Rebuilds this freshly constructed manager from a RecoveryLog scan:
  /// restores the snapshot (if any), replays the journal tail through the
  /// real handlers with sends suppressed, then finishes the interrupted
  /// tick's missing phases with sends enabled. Returns the number of
  /// non-heartbeat inputs handled in the final replayed tick (the pump()
  /// return value the crashed tick would have produced). Workers, links and
  /// their in-flight messages are expected to have survived; results for
  /// pre-crash attempts are accepted exactly once by the normal idempotency
  /// gate on subsequent pumps.
  std::size_t recover(const core::recovery::RecoveryLog::ScanResult& scan);

  // --- replication / failover (docs/replication.md) -----------------------

  /// Incremental replay surface for the hot-standby replica
  /// (core/replication/). begin_replay() puts a freshly constructed manager
  /// into replay mode, optionally seeded from a snapshot body;
  /// replay_record() applies one journal record through the real handlers
  /// with wire sends suppressed; finish_replay() runs the interrupted
  /// tick's missing phases with sends enabled and leaves replay mode — the
  /// promotion step, returning what that tick's pump() would have.
  /// recover() is exactly this sequence over a RecoveryLog scan. A record
  /// replay cannot apply (a short payload or trailing bytes, a tick out of
  /// sequence, an unknown link) refuses with a typed
  /// core::recovery::StorageError{EBADMSG, Salvage}.
  void begin_replay(const std::optional<std::string>& snapshot);
  void replay_record(const core::recovery::JournalRecord& rec);
  std::size_t finish_replay();

  /// Leadership term: bumped by a failover promotion, write-ahead journaled
  /// as a TermBump input record, and snapshot-carried (0 until a promotion
  /// ever happens).
  std::uint64_t term() const noexcept { return term_; }

  /// Promotion: take the next leadership term and journal it durably.
  void bump_term();

  /// Split-brain fencing: a fenced (deposed) manager stops cold — pump()
  /// becomes a no-op — so a zombie primary can neither dispatch work nor
  /// charge timeouts/evictions against workers that re-homed to the new
  /// primary. Deliberately NOT snapshot state: fencing describes this
  /// process, not the replicated workflow.
  void fence() noexcept { fenced_ = true; }
  bool fenced() const noexcept { return fenced_; }

  /// Storage-degradation status (ENOSPC/EIO handling; docs/recovery.md).
  /// While degraded the journal is closed, new dispatches are held via the
  /// admission gate (counted in resilience().dispatches_held), in-flight
  /// results keep being served from memory, and each pump retries the disk
  /// on a capped exponential backoff.
  const core::StorageHealth& storage_health() const noexcept {
    return storage_;
  }

  /// External notification that durable storage failed outside a journal
  /// call (the recovery runtime's post-recovery rotate): enters
  /// storage_degraded mode. No-op without an attached log.
  void note_storage_failure();

 private:
  /// Protocol-only per-task state, parallel to the core's TaskEntry.
  struct ProtoTaskState {
    std::size_t dispatch_tick = 0;
    std::size_t backoff_until = 0;  ///< not dispatchable before this tick
    std::size_t infra_failures = 0;  ///< consecutive, for backoff growth

    static constexpr auto fields() {
      using P = ProtoTaskState;
      using core::snapshot::field;
      return core::snapshot::section(
          "ProtoTask", field("dispatch_tick", &P::dispatch_tick),
          field("backoff_until", &P::backoff_until),
          field("infra_failures", &P::infra_failures));
    }
  };

  struct WorkerState {
    core::ResourceVector capacity;
    core::ResourceVector committed;
    DuplexLinkPtr link;  ///< rebound by position on load
    std::size_t last_seen_tick = 0;
    std::size_t consecutive_failures = 0;

    /// Every dimension of `capacity` is finite and >= 0, as the wire
    /// admits it, and of `committed` finite (a released worker may keep a
    /// few ulps of dust below zero); after_load bounds the managed
    /// dimensions' commitment by the capacity.
    static constexpr auto fields() {
      using W = WorkerState;
      using core::snapshot::field, core::snapshot::kFinite,
          core::snapshot::kNonNegative;
      return core::snapshot::section(
          "ManagerWorker", field("capacity", &W::capacity, kNonNegative),
          field("committed", &W::committed, kFinite),
          field("last_seen_tick", &W::last_seen_tick),
          field("consecutive_failures", &W::consecutive_failures));
    }
  };

  // Worker registry. Every change to a worker's free capacity goes through
  // these, which keep the placement index (slot = worker id = link index)
  // exact: each leaf is capacity - committed, the limit fits_within
  // compares against.
  /// Registers worker `wid` (replacing any earlier entry).
  void add_worker(std::uint64_t wid, WorkerState ws);
  /// Binds `alloc` on registered worker `wid`; returns it.
  WorkerState& bind(std::uint64_t wid, const core::ResourceVector& alloc);
  /// Frees `alloc` on worker `wid`; returns it, or null if it is gone.
  WorkerState* release(std::uint64_t wid, const core::ResourceVector& alloc);
  /// Re-derives worker `wid`'s leaf after its capacity or commitment moved.
  void refresh(std::uint64_t wid, const WorkerState& ws);

  void handle(const Message& msg);
  /// A ready or heartbeat line: registers the worker, or refreshes it.
  void on_announce(const Message& msg);
  void on_result(const Message& msg);
  void note_malformed(std::size_t link_index, const std::string& line);
  void touch(std::uint64_t worker_id);
  void check_liveness();
  /// replay_record()'s body: applies `rec`, refusing what it cannot apply.
  void apply_record(const core::recovery::JournalRecord& rec);
  /// Decode + dispatch one polled wire line (the pump drain body, shared
  /// with journal replay). Returns true for a handled non-heartbeat line.
  bool handle_line(std::size_t link_index, const std::string& line);
  /// True while journal records should be appended (log attached, writable,
  /// and not replaying — replay must not re-journal what it reads).
  bool journaling() const noexcept;
  void journal(core::recovery::RecordType type, std::string_view payload = {});
  /// Durability barrier with the degradation catch: a StorageError closes
  /// the journal and enters storage_degraded instead of killing the run.
  void journal_sync();
  /// Storage failed mid-journal: close the log (silencing every journal
  /// site via writable()), hold new dispatches, schedule a disk retry.
  void enter_storage_degraded();
  /// While degraded, retry the disk (a full rotate) once the backoff
  /// expires; success reopens the journal at a fresh generation and exits
  /// the mode. Runs at the top of pump().
  void retry_storage();
  void reach(core::recovery::ManagerCrashPoint point, std::uint64_t tick);
  void restore_state(util::ByteReader& r) { core::snapshot::load(r, *this); }
  void after_load();
  void maybe_snapshot();

  // RuntimeHooks: the lifecycle audit records of the journal.
  void task_fatal(std::uint64_t task_id) override;
  void allocation_committed(std::uint64_t task_id,
                            const core::ResourceVector& alloc,
                            bool is_retry) override;
  void task_dispatched(std::uint64_t task_id, std::uint64_t worker,
                       std::uint32_t attempt) override;
  void task_completed(std::uint64_t task_id,
                      const core::ResourceVector& measured_peak,
                      double runtime_s) override;
  void task_failed_attempt(std::uint64_t task_id, double runtime_s,
                           unsigned exceeded_mask, bool requeued) override;
  void task_requeued(std::uint64_t task_id) override;
  void task_evicted(std::uint64_t task_id, double scale) override;

  // DispatchDriver: the dispatch pass of dispatch_queued. place applies
  // the pass's admission gate, then place_worker; commit binds the worker
  // and sends the dispatch; defer holds tasks in a backoff window;
  // may_place reads the placement index's root unless the gate is up;
  // pool_capacity sums the registry's announced capacities.
  std::optional<std::uint64_t> place(
      std::uint64_t task_id, const core::ResourceVector& alloc) override;
  void commit(std::uint64_t task_id, std::uint64_t wid,
              const core::ResourceVector& alloc) override;
  bool defer(std::uint64_t task_id) override;
  bool may_place(const core::ResourceVector& floor) const override;
  core::ResourceVector pool_capacity() const override;

  // SpeculationDriver: a copy binds its worker in the registry. A promoted
  // one keeps the wire attempt id, so the idempotency gate now expects its
  // worker; timeouts and the straggler scan count from its dispatch tick.
  void charge_copy(std::uint64_t task_id, double scale) override {
    core_.charge_speculation(task_id, scale);
  }
  void free_copy(std::uint64_t task_id, std::uint64_t wid) override {
    release(wid, core_.entry(task_id).alloc);
  }
  bool copy_worker_alive(std::uint64_t wid) const override {
    return registered(wid);
  }
  void promote_copy(std::uint64_t task_id,
                    const core::resilience::Duplicate& copy) override {
    core_.rebind_running(task_id, copy.worker);
    proto_states_[task_id].dispatch_tick = static_cast<std::size_t>(copy.start);
  }

  /// Binds `alloc` on worker `wid` and, unless replaying, sends it the
  /// dispatch of the task's current attempt (a duplicate's too).
  void send_dispatch(std::uint64_t task_id, std::uint64_t wid,
                     const core::ResourceVector& alloc);
  /// Requeues a Running task after an infrastructure failure, applying
  /// capped exponential backoff. No-op unless the task is Running.
  void requeue_infra(std::uint64_t task_id);
  /// Forgets a worker; its Running tasks are requeued and charged as
  /// evictions. Quarantined workers are never re-admitted (heartbeats and
  /// announcements from them are ignored from then on).
  void remove_worker(std::uint64_t worker_id, bool quarantine);
  void dispatch_queued();

  // Resilience layer (inert unless cfg_.resilience enables features).
  /// Legacy permanent quarantine OR a reliability sentence still being
  /// served (probation replaces the permanent flag when scoring is on).
  bool is_quarantined(std::uint64_t worker_id) const;
  /// At least one infrastructure casualty observed — speculation never
  /// spends resources on a calm pool.
  bool churn_evidence() const noexcept;
  /// A worker fitting `alloc`, skipping `exclude` and any worker whose
  /// transport reported backpressure in this tick's sample. First-fit
  /// normally; with reliability scoring, the most reliable
  /// non-probationary fit (ties to the lowest id), probationary workers as
  /// last resort. `bp_blocked` (nullable) is set when at least one worker
  /// fit but was skipped only for backpressure. Both searches run over the
  /// placement index, which visits exactly the fitting workers in id
  /// order.
  std::optional<std::uint64_t> place_worker(const core::ResourceVector& alloc,
                                            std::optional<std::uint64_t>
                                                exclude,
                                            bool* bp_blocked = nullptr) const;
  /// Samples per-link Channel::backpressured() into bp_sample_ — the ONE
  /// observation of transport state each tick's dispatch phase consumes.
  /// pump() journals a nonzero sample (RecordType::Backpressure) so crash
  /// replay re-runs dispatch_queued against the same observation instead
  /// of live transport state.
  void sample_backpressure();
  /// At least half the known workers' links pushed back in this tick's
  /// sample: the transport is drowning. Joins StormDetector::degraded() in
  /// capping in-flight dispatches (same knob, resilience.degraded_inflight_
  /// cap) — dispatching into full send queues only deepens the backlog.
  bool transport_overloaded() const noexcept;
  /// Duplicates straggling Running attempts onto second workers (runs at
  /// the end of dispatch_queued, so replay's DispatchDone marker covers it).
  void maybe_speculate();

  std::vector<DuplexLinkPtr> links_;
  LivenessConfig cfg_;
  core::tenancy::MultiTenantCore core_;
  /// Global task-spec view (tenant 0's span at single-tenant; the facade's
  /// composed copy otherwise).
  std::span<const core::TaskSpec> tasks_;
  std::map<std::uint64_t, WorkerState> workers_;
  /// Derived from workers_ (never serialized): one slot per link.
  core::lifecycle::PlacementIndex index_;
  std::vector<ProtoTaskState> proto_states_;
  core::ChaosCounters chaos_;
  std::vector<char> quarantined_;
  std::vector<char> malformed_logged_;
  /// Per-link backpressure sampled once per tick (see sample_backpressure).
  /// Transient per-phase input, journaled rather than snapshotted.
  std::vector<char> bp_sample_;
  bool bp_sampled_this_tick_ = false;
  /// The degraded-mode admission gate's per-pass sample (dispatch_queued):
  /// the in-flight cap (none while not degraded) and inflight(), which each
  /// commit of the pass raises. Transient, like bp_sample_.
  std::optional<std::size_t> gate_cap_;
  std::size_t gate_inflight_ = 0;
  std::size_t tick_ = 0;
  std::size_t dispatches_ = 0;
  bool started_ = false;

  core::recovery::RecoveryLog* log_ = nullptr;
  core::recovery::CrashMonitor* crashes_ = nullptr;
  core::recovery::RecoveryConfig recovery_cfg_{};
  core::RecoveryCounters* recovery_counters_ = nullptr;
  bool replaying_ = false;
  /// Interrupted-tick bookkeeping between begin_replay and finish_replay.
  bool replay_liveness_pending_ = false;
  bool replay_dispatch_pending_ = false;
  std::size_t replay_handled_ = 0;

  // Replication / failover (docs/replication.md).
  std::uint64_t term_ = 0;
  bool fenced_ = false;

  // Storage degradation (ENOSPC/EIO). The flag and backoff are transient
  // (a snapshot is only ever cut by a successful rotate, i.e. healthy); the
  // three counters ride the snapshot.
  core::StorageHealth storage_;
  std::uint64_t storage_retry_tick_ = 0;
  std::uint64_t storage_backoff_ = 0;

  // Resilience layer. Draws no randomness: every decision is a
  // deterministic function of the journaled inputs and the tick, so crash
  // replay re-derives the layer's state bit-for-bit with no new record
  // types.
  core::resilience::DeadlineTracker deadlines_;
  core::resilience::ReliabilityTracker reliability_;
  core::resilience::StormDetector storms_;
  core::resilience::Speculation spec_;
  core::ResilienceCounters res_counters_;
};

/// A manager rebuilt from durable storage, with the allocator it owns.
struct RebuiltManager : ManagerSlot {
  std::size_t handled = 0;  ///< recover()'s result
};

/// The one rebuild-from-log sequence (crash recovery, the failover oracle's
/// cold rebuild, `tora proto --standby-serve`): scan `log`, build a fresh
/// allocator and manager over `links`, attach `log` with `crashes`,
/// `recovery` and `counters`, recover() from the scan, and adopt the
/// scanned epoch on `log`.
RebuiltManager rebuild_from_log(core::recovery::RecoveryLog& log,
                                std::span<const core::TaskSpec> tasks,
                                const AllocatorFactory& make_allocator,
                                const std::vector<DuplexLinkPtr>& links,
                                const LivenessConfig& liveness,
                                core::recovery::CrashMonitor* crashes = nullptr,
                                core::recovery::RecoveryConfig recovery = {},
                                core::RecoveryCounters* counters = nullptr);

/// Convenience harness: builds `num_workers` WorkerAgents of the given
/// capacity wired to a ProtocolManager over in-process links and drives the
/// whole system to completion (ProtocolDrive, no crash policy). `chaos`
/// wraps every link in seeded FaultyChannels and injects the configured
/// worker crashes.
class ProtocolRuntime {
 public:
  ProtocolRuntime(std::span<const core::TaskSpec> tasks,
                  core::TaskAllocator& allocator, std::size_t num_workers,
                  core::ResourceVector worker_capacity = {16.0, 64.0 * 1024.0,
                                                          64.0 * 1024.0, 0.0},
                  const ChaosConfig& chaos = {});

  /// Multi-tenant harness: the tenants' composed workflow shares the
  /// `num_workers` agents through `arbiter`.
  ProtocolRuntime(std::vector<core::tenancy::TenantInput> tenants,
                  std::unique_ptr<core::tenancy::Arbiter> arbiter,
                  std::size_t num_workers,
                  core::ResourceVector worker_capacity = {16.0, 64.0 * 1024.0,
                                                          64.0 * 1024.0, 0.0},
                  const ChaosConfig& chaos = {});

  /// The manager under test (tenant diagnostics and parity checks).
  const ProtocolManager& manager() const noexcept { return drive_.manager(); }

  /// Runs to completion; throws StallError if the system stops making
  /// progress before every task finishes (see ProtocolDrive for the stall
  /// rule).
  ProtocolRunResult run(std::size_t max_rounds = 1000000);

 private:
  LinkTransport transport_;
  ProtocolDrive drive_;
};

}  // namespace tora::proto
