#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/metrics.hpp"
#include "core/resilience/resilience.hpp"
#include "core/resilience/speculation.hpp"
#include "core/resources.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "core/tenancy/multi_tenant_core.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/observer.hpp"
#include "sim/worker_pool.hpp"
#include "util/rng.hpp"

namespace tora::sim {

/// A heterogeneous-pool entry: workers of this capacity join with
/// probability proportional to `weight`.
struct WorkerProfile {
  double weight = 1.0;
  core::ResourceVector capacity;
};

/// Simulation parameters. Defaults reproduce the paper's §V-A setup:
/// opportunistic workers of (16 cores, 64 GB memory, 64 GB disk), 20–50 of
/// them alive at any time.
struct SimConfig {
  core::ResourceVector worker_capacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};
  /// Optional heterogeneous pool: when non-empty, each joining worker draws
  /// its capacity from these profiles (weighted); `worker_capacity` is then
  /// only the allocator clamp ceiling and should equal the element-wise max
  /// of the profiles so every clamped allocation fits SOME worker kind. At
  /// least one profile must match that maximum or oversized tasks can wait
  /// forever.
  std::vector<WorkerProfile> worker_profiles;
  /// How the scheduler picks among workers that fit (paper: Work Queue uses
  /// first-fit-style matching; BestFit/WorstFit are ablation knobs).
  Placement placement = Placement::FirstFit;
  ChurnConfig churn;
  /// Tasks become ready at id * submit_interval_s (0 = all ready at t=0,
  /// modelling a manager that floods the scheduler with ready tasks).
  double submit_interval_s = 0.0;
  std::uint64_t seed = 42;
  /// Safety valve: a task exceeding this many execution attempts is fatal.
  std::size_t max_attempts_per_task = 64;

  /// Worker resource-monitor sampling interval (sim/enforcement.hpp).
  /// 0 = continuous enforcement; > 0 = OS-metric polling cadence, letting
  /// violations overrun to the next sample boundary.
  double monitor_interval_s = 0.0;

  /// How record significance is assigned on completion. TaskId follows the
  /// paper (§V-A: significance = task id, so recent submissions dominate);
  /// Constant disables recency weighting (the ablation baseline).
  enum class SignificanceMode { TaskId, Constant };
  SignificanceMode significance = SignificanceMode::TaskId;

  /// Churn-adaptive resilience layer (core/resilience/): adaptive deadlines,
  /// speculative re-dispatch and storm degradation. Default-off; every
  /// feature is additionally gated on churn evidence (at least one eviction
  /// observed), so a calm run's waste and makespan are unchanged even with
  /// the layer enabled. The simulator never applies reliability scoring —
  /// simulated workers vanish on eviction and never return, so there is no
  /// worker identity to score (the protocol runtime applies it).
  core::resilience::ResilienceConfig resilience;
};

/// Lifecycle of a task inside the simulator — the shared machine's phase
/// (the simulator keeps no task state machine of its own).
using TaskStatus = core::lifecycle::TaskPhase;

/// Aggregate outcome of one simulated workflow run.
struct SimResult {
  core::WasteAccounting accounting;
  double makespan_s = 0.0;
  std::size_t tasks_completed = 0;
  std::size_t tasks_fatal = 0;
  /// Eviction statistics. Evicted attempts are requeued with the SAME
  /// allocation and their cost is tracked separately — the paper's waste
  /// metric charges only allocation-induced failures to the algorithm.
  std::size_t evictions = 0;
  core::ResourceVector evicted_alloc_seconds;
  std::size_t total_joins = 0;
  std::size_t total_leaves = 0;
  std::size_t peak_workers = 0;
  /// Events the engine dispatched over the run (the denominator of the
  /// events/s throughput headline).
  std::uint64_t events_processed = 0;
  /// Time-integrals over the run: Σ committed[k]·dt and Σ capacity[k]·dt
  /// across the alive pool, one term per event from the pool's exact
  /// totals. Their ratio is the pool utilization — the administrator-side
  /// metric the paper's introduction motivates (opportunistic workers
  /// soaking up idle capacity).
  core::ResourceVector committed_integral;
  core::ResourceVector capacity_integral;
  /// Resilience-layer activity (all zero when the layer is disabled or
  /// never triggered). Speculative waste itself is a WasteAccounting column
  /// (accounting.breakdown(k).speculative).
  core::ResilienceCounters resilience;

  /// Fraction of the pool's capacity-time that was committed to tasks.
  /// 0 when nothing was observed.
  double pool_utilization(core::ResourceKind kind) const {
    return capacity_integral[kind] > 0.0
               ? committed_integral[kind] / capacity_integral[kind]
               : 0.0;
  }

  /// The fields a Simulation snapshot carries: the simulator-owned ones.
  /// Everything else is derived from the core on read (Simulation::result).
  static constexpr auto fields() {
    using R = SimResult;
    using core::snapshot::field, core::snapshot::kNonNegative;
    return core::snapshot::section(
        "SimResult", field("makespan_s", &R::makespan_s, kNonNegative),
        field("total_joins", &R::total_joins),
        field("total_leaves", &R::total_leaves),
        field("peak_workers", &R::peak_workers),
        field("events_processed", &R::events_processed),
        field("committed_integral", &R::committed_integral, kNonNegative),
        field("capacity_integral", &R::capacity_integral, kNonNegative));
  }
};

/// Discrete-event simulator of the paper's dynamic workflow system (Fig. 1
/// and Fig. 3a): ready tasks are allocated by the TaskAllocator at dispatch
/// time, placed first-fit onto opportunistic workers, killed at the moment
/// they exceed any allocated dimension, retried with a bigger allocation,
/// and reported back into the allocator's bucketing state on success.
///
/// The task state machine itself — readiness, allocation caching, retry
/// escalation, fatality cascades, the waste/eviction accounting split —
/// lives in core::lifecycle::DispatchCore, shared verbatim with
/// proto::ProtocolManager. This class contributes only what is genuinely
/// simulated: the event clock, worker churn, placement, enforcement timing,
/// and per-attempt epochs that invalidate stale finish events. It is the
/// core's hooks sink and its dispatch driver.
class Simulation final : private core::lifecycle::RuntimeHooks,
                         private core::lifecycle::DispatchDriver,
                         private core::resilience::SpeculationDriver {
 public:
  /// `tasks` must outlive the simulation; ids must equal the index order
  /// produced by the workload generators (0-based, dense). Single-tenant
  /// with the pass-through arbiter — dispatches exactly as the pre-tenancy
  /// simulator did.
  Simulation(std::span<const core::TaskSpec> tasks,
             core::TaskAllocator& allocator, SimConfig config);

  /// Multi-tenant: each tenant's workflow (local dense 0-based ids) shares
  /// the worker pool through `arbiter`. Tenant t's task i submits at
  /// arrival_offset_s + i * submit_interval_s. Spans and allocators must
  /// outlive the simulation.
  Simulation(std::vector<core::tenancy::TenantInput> tenants, SimConfig config,
             std::unique_ptr<core::tenancy::Arbiter> arbiter);

  /// Runs to completion of every task and returns the aggregate result.
  /// Call at most once (a load_state()-restored simulation may call it once
  /// to finish the restored run).
  SimResult run();

  /// Processes every event at the earliest pending clock value in one pass
  /// (bootstrapping the pool and the submit schedule on the first call);
  /// returns false once every task reached a terminal phase. Same-instant
  /// bursts — submit floods, SpecCheck storms, simultaneous evictions —
  /// collapse into a single step, and newly pushed same-instant events
  /// always carry higher seqs, so the per-event handling order is exactly
  /// the legacy one-pop-per-step order. Stepping manually lets long-running
  /// drivers snapshot the simulation between steps; run() is equivalent to
  /// stepping until false and then reading result().
  bool step();

  /// Aggregate result so far. Totals owned by the lifecycle core
  /// (accounting, completion/fatal counts, evictions) are synced on read,
  /// so this is valid mid-run as well as after run().
  SimResult result() const;

  /// Serializes the complete mid-run state: allocator (bit-exact, including
  /// per-policy sampler state), lifecycle core, pending event heap, worker
  /// pool, per-task timing/epochs, the clock, the RNG and partial results.
  /// Restoring into a fresh Simulation (same tasks/config, freshly
  /// constructed allocator of the same policy+config+seed) and resuming
  /// produces bit-for-bit the run the saved one would have produced.
  void save_state(util::ByteWriter& w) const;

  /// Restores a save_state() capture. Must be called before the first
  /// step()/run(); the allocator passed at construction is overwritten
  /// (policy name and config hash are validated; mismatch throws).
  void load_state(util::ByteReader& r);

  /// Speculation precedes the events: its format mark refuses the event
  /// frame a build with the simulator's own speculation state wrote there.
  static constexpr auto fields() {
    using S = Simulation;
    using core::snapshot::field, core::snapshot::kNonNegative,
        core::snapshot::kSameSize, core::snapshot::kFixedSize;
    return core::snapshot::section(
        "Simulation", &S::after_load, field("started", &S::started_),
        field("finished", &S::finished_), field("core", &S::core_),
        field("rng", &S::rng_), field("speculation", &S::spec_),
        field("events", &S::events_), field("pool", &S::pool_),
        field("timing", &S::timing_, kSameSize),
        field("now", &S::now_, kNonNegative), field("result", &S::result_),
        field("deadlines", &S::deadlines_), field("storms", &S::storms_),
        field("storm_active", &S::storm_active_),
        field("deadline_strikes", &S::deadline_strikes_, kFixedSize),
        field("res_counters", &S::res_counters_),
        field("tenant_committed", &S::tenant_committed_,
              kFixedSize | kNonNegative),
        field("tenant_makespan", &S::tenant_makespan_,
              kFixedSize | kNonNegative));
  }

  /// Attaches a lifecycle observer (nullptr to detach). Must be set before
  /// run(); the observer must outlive the simulation.
  void set_observer(SimObserver* observer) noexcept { observer_ = observer; }

  /// Tenant 0's lifecycle machine (parity tests and diagnostics; the
  /// whole machine at single-tenant).
  const core::lifecycle::DispatchCore& core() const noexcept {
    return core_.tenant_core(0);
  }

  /// The worker pool (diagnostics; the integral oracle in tests/ walks it).
  const WorkerPool& pool() const noexcept { return pool_; }

  /// The pending events (diagnostics; the pop-order oracle in tests/ reads
  /// what a finished run left queued).
  const CalendarQueue& events() const noexcept { return events_; }

  /// The speculation machine (diagnostics and invariant tests).
  const core::resilience::Speculation& speculation() const noexcept {
    return spec_;
  }

  /// What the degraded-mode cap counts: Running tasks plus live duplicates.
  std::size_t inflight() const noexcept {
    return core_.running_total() + spec_.live();
  }

  /// The tenant facade (multi-tenant diagnostics and reporting).
  const core::tenancy::MultiTenantCore& tenants() const noexcept {
    return core_;
  }

  /// Per-tenant outcomes with welfare/fairness fields finalized. One entry
  /// at single-tenant (derived from the aggregate result).
  std::vector<core::TenantOutcome> tenant_outcomes() const;

 private:
  /// Simulator-only per-task state, parallel to the core's TaskEntry.
  struct TimingState {
    std::uint64_t epoch = 0;  ///< bumped when a running attempt dies
    SimTime attempt_start = 0.0;
    /// The enforcement model's runtime for the in-flight attempt, kept so a
    /// failure reports exactly what the model computed (deriving it back
    /// from event times would reintroduce floating-point round-trip error
    /// and break bit-parity with the protocol runtime, whose workers report
    /// the same model's output).
    SimTime attempt_runtime = 0.0;

    static constexpr auto fields() {
      using T = TimingState;
      using core::snapshot::field, core::snapshot::kNonNegative;
      return core::snapshot::section(
          "Timing", field("epoch", &T::epoch),
          field("attempt_start", &T::attempt_start, kNonNegative),
          field("attempt_runtime", &T::attempt_runtime, kNonNegative));
    }
  };

  // RuntimeHooks.
  void task_fatal(std::uint64_t task_id) override;
  void task_completed(std::uint64_t task_id,
                      const core::ResourceVector& measured_peak,
                      double runtime_s) override;

  // DispatchDriver: the dispatch pass's placement, commit, the early end
  // and the live pool capacity the tenancy arbiters read.
  std::optional<std::uint64_t> place(
      std::uint64_t task_id, const core::ResourceVector& alloc) override;
  void commit(std::uint64_t task_id, std::uint64_t worker_id,
              const core::ResourceVector& alloc) override;
  bool may_place(const core::ResourceVector& floor) const override;
  core::ResourceVector pool_capacity() const override;

  // SpeculationDriver: a copy occupies the pool; a promoted one is re-armed
  // as commit arms an attempt.
  void charge_copy(std::uint64_t task_id, double scale) override {
    core_.charge_speculation(task_id, scale);
  }
  void free_copy(std::uint64_t task_id, std::uint64_t worker_id) override {
    pool_.finish(worker_id, task_id, core_.entry(task_id).alloc);
  }
  bool copy_worker_alive(std::uint64_t worker_id) const override {
    return pool_.alive(worker_id);
  }
  void promote_copy(std::uint64_t task_id,
                    const core::resilience::Duplicate& copy) override;

  void bootstrap();
  /// Refuses a loaded speculation table that does not match the loaded
  /// tasks and pool.
  void after_load();
  /// Pushes the attempt's finish event, straggler check and deadline, from
  /// timing_'s start and runtime.
  void arm(std::uint64_t task_id, std::uint64_t worker_id);
  void handle(const Event& e);
  void accumulate_integrals(SimTime t);
  void on_submit(std::uint64_t task_id);
  void on_attempt_finish(const Event& e);
  void on_worker_join();
  void on_worker_leave(std::uint64_t worker_id);
  void dispatch();
  void complete_task(std::uint64_t task_id);
  void fail_attempt(std::uint64_t task_id, SimTime runtime);
  void schedule_worker_lifetime(std::uint64_t worker_id);
  std::uint64_t spawn_worker();

  // Resilience layer.
  bool churn_evidence() const noexcept { return core_.evictions() > 0; }
  /// The task's adaptive deadline: widened while degraded, doubled per
  /// strike.
  double deadline(std::uint64_t task_id);
  void evict_worker(std::uint64_t worker_id);
  void on_spec_check(const Event& e);
  void on_deadline_kill(const Event& e);
  void on_storm_begin();
  /// Pushes the attempt's straggler check (at its threshold, or now if
  /// that has passed) when speculation is on and the threshold known.
  void arm_spec_check(std::uint64_t task_id);

  SimConfig config_;
  core::tenancy::MultiTenantCore core_;
  /// Global task-spec view (tenant 0's span at single-tenant; the facade's
  /// composed copy otherwise).
  std::span<const core::TaskSpec> tasks_;
  util::Rng rng_;
  CalendarQueue events_;
  WorkerPool pool_;
  std::vector<TimingState> timing_;
  SimTime now_ = 0.0;
  SimResult result_;
  bool started_ = false;
  bool finished_ = false;
  SimObserver* observer_ = nullptr;

  // Per-event scratch buffers, reused across the whole run so the hot loop
  // never heap-allocates (capacity sticks after the first storm/eviction).
  std::vector<std::uint64_t> scratch_victims_;
  std::vector<std::uint64_t> scratch_alive_;

  // Resilience layer (inert unless config_.resilience enables features).
  core::resilience::DeadlineTracker deadlines_;
  core::resilience::StormDetector storms_;
  core::resilience::Speculation spec_;
  /// Adaptive-deadline kills already suffered per task; each strike doubles
  /// the next effective deadline, so a task longer than its category's
  /// deadline still makes progress.
  std::vector<std::uint32_t> deadline_strikes_;
  core::ResilienceCounters res_counters_;
  bool storm_active_ = false;

  // Per-tenant run metrics (indexed by TenantId). Only accumulated outside
  // the single-tenant pass-through mode, where the aggregate result already
  // is the tenant's result; always serialized.
  std::vector<core::ResourceVector> tenant_committed_;
  std::vector<double> tenant_makespan_;
};

}  // namespace tora::sim
