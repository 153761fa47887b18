#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/lifecycle/category_table.hpp"
#include "core/metrics.hpp"
#include "core/resources.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"

namespace tora::core::lifecycle {

/// Lifecycle phase of a task in the shared dispatch state machine
/// (paper Fig. 3a). Both runtimes expose this directly.
enum class TaskPhase : std::uint8_t {
  Pending,  ///< not yet submitted or waiting on dependencies
  Queued,   ///< ready, waiting for a worker
  Running,  ///< attempt in flight
  Done,     ///< completed successfully
  Fatal,    ///< cannot run (demand above capacity or attempt limit)
};

/// Per-task state of the shared machine. Runtime-specific bookkeeping
/// (event epochs and attempt start times in the simulator; dispatch ticks,
/// backoff windows and infrastructure-failure streaks in the protocol
/// manager) lives in the drivers, parallel to this.
struct TaskEntry {
  TaskPhase phase = TaskPhase::Pending;
  bool submitted = false;
  bool has_alloc = false;
  /// True once the allocation came from a retry (failure escalation);
  /// retry allocations are never invalidated by allocator revisions.
  bool is_retry = false;
  /// Execution attempts dispatched so far; doubles as the protocol's wire
  /// attempt id (the manager stamps it into each dispatch message).
  std::uint32_t attempts = 0;
  /// TaskAllocator::version() of the category when a first-attempt
  /// allocation was computed: the category's completion count for a
  /// deterministic category, the allocator's revision() otherwise. A stale
  /// version means newer records exist and the allocation is re-requested
  /// at the next dispatch (Fig. 3a dispatch-time protocol).
  std::uint64_t alloc_revision = 0;
  std::uint64_t running_on = 0;  ///< worker id while Running
  ResourceVector alloc;
  std::size_t deps_remaining = 0;
  std::vector<AttemptLog> failed_attempts;

  static constexpr auto fields() {
    using E = TaskEntry;
    using snapshot::field;
    return snapshot::section(
        "TaskEntry",
        field("phase", &E::phase, snapshot::at_most(TaskPhase::Fatal)),
        field("submitted", &E::submitted), field("has_alloc", &E::has_alloc),
        field("is_retry", &E::is_retry), field("attempts", &E::attempts),
        field("alloc_revision", &E::alloc_revision),
        field("running_on", &E::running_on),
        field("alloc", &E::alloc, snapshot::kNonNegative),
        field("deps_remaining", &E::deps_remaining),
        field("failed_attempts", &E::failed_attempts));
  }
};

/// Knobs that differ between the runtimes driving the shared machine.
struct DispatchConfig {
  /// Fatal once a task would start this many execution attempts (0 = no
  /// limit). The simulator's safety valve; checked at placement time, so a
  /// task that merely waits in the queue never trips it.
  std::size_t max_attempts = 0;

  /// Fatal once a task has logged this many allocation-induced failures
  /// (0 = no limit). The protocol manager's fatal budget; infrastructure
  /// failures never count against it.
  std::size_t max_allocation_failures = 0;

  /// Significance passed to record_completion. TaskId follows the paper
  /// (§V-A: significance = task id + 1, so recent submissions dominate);
  /// Constant disables recency weighting (the ablation baseline).
  enum class Significance { TaskId, Constant };
  Significance significance = Significance::TaskId;

  /// Multiplier applied to every first-attempt allocation on the managed
  /// dimensions, clamped to worker capacity (1.0 = honest, the default).
  /// The tenancy layer's demand-misreporting stress knob: a greedy tenant
  /// pads its asks, and the padded allocation flows through placement,
  /// waste accounting and the arbiter's usage view, so the cost of lying
  /// is visible end to end. Retry escalations start from the padded
  /// allocation and are not re-inflated.
  double alloc_inflation = 1.0;
};

/// Lifecycle notifications the machine sends its runtime. The simulator
/// observes task_fatal (logging + SimObserver) and task_completed (the
/// deadline histogram); the recoverable protocol manager implements the
/// full set to emit the journal's lifecycle audit records
/// (core/recovery/journal.hpp). Every hook defaults to a no-op, fires AFTER
/// the state change it describes, and must not re-enter the core.
class RuntimeHooks {
 public:
  virtual ~RuntimeHooks() = default;
  /// A task was declared unrunnable (cascaded fatalities fire one each).
  virtual void task_fatal(std::uint64_t /*task_id*/) {}
  /// A (re)computed allocation was cached for the task. `is_retry` marks
  /// escalations from fail_attempt; false means a dispatch-time (re)compute.
  virtual void allocation_committed(std::uint64_t /*task_id*/,
                                    const ResourceVector& /*alloc*/,
                                    bool /*is_retry*/) {}
  /// A placement was admitted: the entry is Running on `worker` and the
  /// driver's commit is about to run. `attempt` is the wire attempt id.
  virtual void task_dispatched(std::uint64_t /*task_id*/,
                               std::uint64_t /*worker*/,
                               std::uint32_t /*attempt*/) {}
  /// A successful completion was recorded (accounting + allocator fed).
  virtual void task_completed(std::uint64_t /*task_id*/,
                              const ResourceVector& /*measured_peak*/,
                              double /*runtime_s*/) {}
  /// An allocation-induced failure was logged. `requeued` is false when the
  /// failure tipped the task fatal (task_fatal also fires).
  virtual void task_failed_attempt(std::uint64_t /*task_id*/,
                                   double /*runtime_s*/,
                                   unsigned /*exceeded_mask*/,
                                   bool /*requeued*/) {}
  /// An infrastructure requeue put a Running task back at the queue front.
  virtual void task_requeued(std::uint64_t /*task_id*/) {}
  /// An eviction charge hit the ledger.
  virtual void task_evicted(std::uint64_t /*task_id*/, double /*scale*/) {}
};

/// The sink that ignores every hook: the default for a core nobody observes.
inline RuntimeHooks no_hooks;

/// The runtime side of a dispatch pass, implemented by both runtimes
/// (sim::Simulation, proto::ProtocolManager). The pass calls it while it
/// compacts the ready queue in place: like RuntimeHooks, a driver must not
/// re-enter the core (no complete, fail_attempt, requeue_front,
/// mark_submitted or dispatch_pass from inside one).
class DispatchDriver {
 public:
  virtual ~DispatchDriver() = default;
  /// Returns the chosen worker for (task, alloc), or nullopt if nothing
  /// fits right now. Must not commit resources (commit does).
  virtual std::optional<std::uint64_t> place(std::uint64_t task,
                                             const ResourceVector& alloc) = 0;
  /// Commits a placement the machine has admitted: bind resources, send
  /// the dispatch message / schedule the finish event. The entry is
  /// already Running with `attempts` incremented when this runs.
  virtual void commit(std::uint64_t task, std::uint64_t worker,
                      const ResourceVector& alloc) = 0;
  /// True holds a task back this pass without touching its cached
  /// allocation (the protocol manager's backoff windows).
  virtual bool defer(std::uint64_t /*task*/) { return false; }
  /// False only if place() would refuse every allocation that is >=
  /// `floor` on each dimension, and would refuse it without side effects:
  /// the pass then stops probing. Both runtimes answer from their
  /// placement index's root, and answer true while a degraded-mode cap may
  /// hold (and count) probes.
  virtual bool may_place(const ResourceVector& /*floor*/) const {
    return true;
  }
  /// Live aggregate pool capacity for the tenancy arbiters' dominant-share
  /// math; only the arbitrated pass (core/tenancy) reads it, once per pass.
  virtual ResourceVector pool_capacity() const { return {}; }
};

/// The single implementation of the task-lifecycle state machine both
/// runtimes drive (sim::Simulation event-timed, proto::ProtocolManager
/// pump-ticked): dependency countdown, FIFO ready queue, dispatch-time
/// allocation caching invalidated by TaskAllocator::version(), a floor
/// under every queued allocation that ends a pass once nothing can fit,
/// retry escalation via exceeded masks, attempt counting, fatality
/// cascades, and the
/// eviction-vs-allocator-waste accounting split (infrastructure losses go
/// to the eviction ledger, never into WasteAccounting).
///
/// Categories are interned once per task at construction — into the
/// allocator's table for the allocate/record hot path and into the
/// accounting's table for the completion path — so steady-state operation
/// is entirely CategoryId-indexed.
class DispatchCore {
 public:
  /// Validates the workload (dense 0-based ids; every dependency id smaller
  /// than its task's id, which guarantees acyclicity), builds the reverse
  /// dependency adjacency, interns every category, and pre-reserves the
  /// allocator's completion history for tasks.size() completions.
  /// `tasks` and `hooks` must outlive the core.
  DispatchCore(std::span<const TaskSpec> tasks, TaskAllocator& allocator,
               DispatchConfig config, RuntimeHooks& hooks = no_hooks);

  /// Marks every task submitted and queues the dependency-free ones (the
  /// protocol manager's start; the simulator instead feeds submission
  /// events through mark_submitted).
  void start();

  /// Marks one task's submission time reached; queues it if its
  /// dependencies are already complete.
  void mark_submitted(std::uint64_t task_id);

  /// Unlimited placement quota for dispatch_pass (the default: drain the
  /// whole ready queue in one sweep).
  static constexpr std::size_t kNoPlacementLimit =
      static_cast<std::size_t>(-1);

  /// One scheduling sweep over the ready queue (FIFO): each task is popped
  /// once, offered to the driver's defer, its allocation refreshed
  /// (first-attempt allocations are re-requested when their category's
  /// version moved; retry allocations never), and offered to its place.
  /// Placed tasks transition to Running and the driver's commit runs;
  /// unplaced and deferred tasks keep their relative order. A placeable
  /// task that already spent max_attempts is made fatal instead of
  /// dispatched.
  ///
  /// The sweep stops early once `max_placements` tasks were placed (the
  /// tenancy arbiter's progressive-filling quota); tasks not yet scanned
  /// keep their order behind the scanned-but-unplaced ones, so repeated
  /// quota-limited passes drain the queue in the same order one unlimited
  /// pass would. Returns the number of placements committed.
  ///
  /// It also stops probing once the driver's may_place refuses the queue's
  /// floor (asked before the first task and after each commit): no queued
  /// task can be placed then. If every queued first-attempt category is
  /// deterministic the sweep ends there, leaving the rest unscanned;
  /// otherwise it finishes the scan without probing, so each remaining
  /// task still gets its defer and its refresh, and every draw and hook
  /// happens as in a full scan.
  std::size_t dispatch_pass(DispatchDriver& driver,
                            std::size_t max_placements = kNoPlacementLimit);

  /// Successful completion of the in-flight attempt: feeds WasteAccounting
  /// and the allocator (significance per config), releases dependents whose
  /// last dependency this was.
  void complete(std::uint64_t task_id, const ResourceVector& measured_peak,
                double runtime_s);

  enum class RetryVerdict { Requeued, Fatal };

  /// Allocation-induced failure of the in-flight attempt: logs the failed
  /// attempt (the Failed Allocation waste term), spends the fatal budget,
  /// asks the allocator to escalate the exceeded dimensions, and requeues
  /// at the back — or declares the task fatal when the escalation cannot
  /// grow (clamped at worker capacity), the budget is spent, or the mask
  /// is empty.
  RetryVerdict fail_attempt(std::uint64_t task_id, double runtime_s,
                            unsigned exceeded_mask);

  /// Infrastructure requeue: a Running task goes back to the FRONT of the
  /// queue with its allocation unchanged (evictions and protocol timeouts).
  /// No-op unless the task is Running.
  void requeue_front(std::uint64_t task_id);

  /// Charges a Running task's allocation × `scale` to the eviction ledger
  /// (scale = elapsed seconds in the timed simulator, 1 per attempt in the
  /// functional protocol). Kept OUT of WasteAccounting: the algorithm did
  /// not cause these failures, which is what keeps AWE comparable across
  /// policies on a churning pool.
  void charge_eviction(std::uint64_t task_id, double scale);

  /// Charges a losing speculative duplicate of a Running task — its cached
  /// allocation × `scale` — to WasteAccounting's speculative column (the
  /// resilience layer's insurance premium; never the eviction ledger, never
  /// the paper's waste terms).
  void charge_speculation(std::uint64_t task_id, double scale);

  /// Re-binds a Running task to `worker` without touching attempts, the
  /// queue or accounting: the resilience layer promotes a speculative
  /// duplicate to primary when the original attempt is lost or outlived.
  /// Throws std::logic_error unless the task is Running.
  void rebind_running(std::uint64_t task_id, std::uint64_t worker);

  /// Declares a task unrunnable; fatality cascades to every dependent.
  /// Idempotent. Invokes hooks.task_fatal once per newly-fatal task.
  void make_fatal(std::uint64_t task_id);

  // --- observers ----------------------------------------------------------

  const TaskEntry& entry(std::uint64_t task_id) const {
    return entries_[task_id];
  }
  std::size_t task_count() const noexcept { return tasks_.size(); }
  std::size_t ready_size() const noexcept { return ready_.size(); }
  /// The ready queue in dispatch order.
  const std::deque<std::uint64_t>& ready_queue() const noexcept {
    return ready_;
  }
  std::size_t completed() const noexcept { return completed_; }
  std::size_t fatal() const noexcept { return fatal_; }
  /// Done + Fatal.
  std::size_t finished() const noexcept { return finished_; }
  bool done() const noexcept { return finished_ == tasks_.size(); }

  const WasteAccounting& accounting() const noexcept { return accounting_; }
  /// Σ alloc · scale over charge_eviction calls (the eviction ledger).
  const ResourceVector& evicted_alloc() const noexcept {
    return evicted_alloc_;
  }
  std::size_t evictions() const noexcept { return evictions_; }

  /// The task's category id in the ALLOCATOR's table.
  CategoryId category_of(std::uint64_t task_id) const {
    return alloc_category_[task_id];
  }

  TaskAllocator& allocator() noexcept { return allocator_; }

  /// Binary serialization of the core's mutable state for the crash-recovery
  /// snapshot: every TaskEntry, the ready queue, accounting, the eviction
  /// ledger and the progress counters. The IMMUTABLE shape (task specs,
  /// dependency graph, interned category ids, config) is NOT serialized —
  /// load_state requires a core freshly constructed over the same workload
  /// and config, and restores it to bit-identical mutable state. Hooks do
  /// not fire during load (the events already happened). Besides the field
  /// checks, load_state refuses a ready-queue id that is out of range,
  /// repeated, or not Queued.
  void save_state(util::ByteWriter& w) const { snapshot::save(w, *this); }
  void load_state(util::ByteReader& r) { snapshot::load(r, *this); }

  static constexpr auto fields() {
    using D = DispatchCore;
    using snapshot::field;
    return snapshot::section(
        "DispatchCore", &D::after_load,
        field("entries", &D::entries_, snapshot::kSameSize),
        field("ready_queue", &D::ready_),
        field("accounting", &D::accounting_),
        field("evicted_alloc", &D::evicted_alloc_, snapshot::kNonNegative),
        field("evictions", &D::evictions_), field("completed", &D::completed_),
        field("fatal", &D::fatal_), field("finished", &D::finished_));
  }

 private:
  void after_load();
  void maybe_ready(std::uint64_t task_id);
  void ensure_allocation(std::uint64_t task_id);
  ResourceVector inflated(ResourceVector alloc) const;
  double significance_for(const TaskSpec& spec) const;
  /// Ready-queue floor bookkeeping for a task that just entered or left
  /// ready_ (its is_retry, and a retry's allocation, never change while it
  /// is queued).
  void track_queue(std::uint64_t task_id, bool entered);
  /// The per-dimension least allocation any queued task can present this
  /// pass; sets `*deterministic` to whether every queued first-attempt
  /// category is deterministic.
  ResourceVector queue_floor(bool* deterministic);

  std::span<const TaskSpec> tasks_;
  TaskAllocator& allocator_;
  DispatchConfig config_;
  RuntimeHooks& hooks_;
  std::vector<TaskEntry> entries_;
  std::vector<CategoryId> alloc_category_;  ///< allocator-table ids
  std::vector<CategoryId> acct_category_;   ///< accounting-table ids
  std::vector<std::vector<std::uint64_t>> dependents_;
  std::deque<std::uint64_t> ready_;  ///< FIFO; evictions requeue at the front
  /// Derived from ready_ (after_load rebuilds them): queued first-attempt
  /// tasks per allocator category, the categories where that count is
  /// non-zero (with each one's position), and the queued retry
  /// allocations per managed dimension.
  std::vector<std::uint32_t> queued_first_;
  std::vector<CategoryId> active_;
  std::vector<std::uint32_t> active_pos_;
  std::vector<std::multiset<double>> queued_retry_;
  WasteAccounting accounting_;
  ResourceVector evicted_alloc_;
  std::size_t evictions_ = 0;
  std::size_t completed_ = 0;
  std::size_t fatal_ = 0;
  std::size_t finished_ = 0;
};

}  // namespace tora::core::lifecycle
