#include "sim/simulation.hpp"

#include "sim/enforcement.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace tora::sim {

using core::ResourceKind;
using core::ResourceVector;
using core::lifecycle::DispatchConfig;
using core::lifecycle::TaskPhase;

namespace {

DispatchConfig dispatch_config(const SimConfig& config) {
  DispatchConfig dc;
  dc.max_attempts = config.max_attempts_per_task;
  dc.significance =
      config.significance == SimConfig::SignificanceMode::TaskId
          ? DispatchConfig::Significance::TaskId
          : DispatchConfig::Significance::Constant;
  return dc;
}

}  // namespace

Simulation::Simulation(std::span<const core::TaskSpec> tasks,
                       core::TaskAllocator& allocator, SimConfig config)
    : Simulation(std::vector<core::tenancy::TenantInput>{
                     {tasks, &allocator, core::tenancy::TenantSpec{}}},
                 std::move(config), core::tenancy::make_arbiter("fifo")) {}

Simulation::Simulation(std::vector<core::tenancy::TenantInput> tenants,
                       SimConfig config,
                       std::unique_ptr<core::tenancy::Arbiter> arbiter)
    : config_(config),
      core_(std::move(tenants), dispatch_config(config), std::move(arbiter),
            *this),
      tasks_(core_.tasks()),
      rng_(config.seed),
      pool_(config.worker_capacity),
      timing_(core_.task_count()),
      deadlines_(config.resilience),
      storms_(config.resilience),
      spec_(config.resilience, core::resilience::Speculation::Clock::Seconds,
            res_counters_),
      deadline_strikes_(core_.task_count(), 0),
      tenant_committed_(core_.tenant_count()),
      tenant_makespan_(core_.tenant_count(), 0.0) {
  config_.resilience.validate();
  const ChurnConfig& ch = config_.churn;
  if (ch.storm_evict_fraction < 0.0 || ch.storm_evict_fraction > 1.0) {
    throw std::invalid_argument(
        "Simulation: storm_evict_fraction must be in [0, 1]");
  }
  if (ch.storm_interval_s < 0.0 || ch.storm_duration_s < 0.0) {
    throw std::invalid_argument("Simulation: storm timings must be >= 0");
  }
  if (ch.storm_interval_s > 0.0 &&
      (ch.storm_duration_s <= 0.0 || ch.storm_evict_fraction <= 0.0)) {
    throw std::invalid_argument(
        "Simulation: storms need storm_duration_s > 0 and "
        "storm_evict_fraction > 0");
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!(tasks_[i].duration_s > 0.0)) {
      throw std::invalid_argument("Simulation: task duration must be > 0");
    }
    if (!(tasks_[i].peak_fraction > 0.0 && tasks_[i].peak_fraction <= 1.0)) {
      throw std::invalid_argument(
          "Simulation: peak_fraction must be in (0, 1]");
    }
  }
  if (config_.churn.initial_workers == 0) {
    throw std::invalid_argument("Simulation: need at least one worker");
  }
  // The pool's exact totals must hold every worker kind's capacity, summed
  // over the largest pool the churn model allows.
  const std::size_t largest = std::max(ch.initial_workers, ch.max_workers);
  core::check_pool_capacity(config_.worker_capacity, largest,
                            "SimConfig::worker_capacity");
  for (std::size_t i = 0; i < config_.worker_profiles.size(); ++i) {
    const WorkerProfile& p = config_.worker_profiles[i];
    if (!(p.weight > 0.0)) {
      throw std::invalid_argument("Simulation: profile weight must be > 0");
    }
    core::check_pool_capacity(
        p.capacity, largest,
        "SimConfig::worker_profiles[" + std::to_string(i) + "].capacity");
  }
}

std::uint64_t Simulation::spawn_worker() {
  if (config_.worker_profiles.empty()) return pool_.add_worker();
  double total = 0.0;
  for (const WorkerProfile& p : config_.worker_profiles) total += p.weight;
  const double u = rng_.uniform01() * total;
  double acc = 0.0;
  for (const WorkerProfile& p : config_.worker_profiles) {
    acc += p.weight;
    if (u < acc) return pool_.add_worker(p.capacity);
  }
  return pool_.add_worker(config_.worker_profiles.back().capacity);
}

void Simulation::bootstrap() {
  for (std::size_t i = 0; i < config_.churn.initial_workers; ++i) {
    const std::uint64_t id = spawn_worker();
    ++result_.total_joins;
    if (observer_) observer_->on_worker_joined(now_, id);
    schedule_worker_lifetime(id);
  }
  result_.peak_workers = pool_.size();
  if (config_.churn.enabled) {
    events_.push(rng_.exponential(1.0 / config_.churn.mean_interarrival_s),
                 EventKind::WorkerJoin);
  }
  // Tenant-major submit order: at single-tenant this is the legacy
  // id-order schedule; multi-tenant adds each tenant's arrival offset.
  for (core::tenancy::TenantId t = 0; t < core_.tenant_count(); ++t) {
    const double offset = core_.tenant(t).arrival_offset_s;
    const std::uint64_t base = core_.global_base(t);
    const std::size_t count =
        (t + 1 < core_.tenant_count() ? core_.global_base(t + 1)
                                      : tasks_.size()) -
        base;
    for (std::size_t i = 0; i < count; ++i) {
      events_.push(offset + static_cast<double>(i) * config_.submit_interval_s,
                   EventKind::TaskSubmit, base + i);
    }
  }
  if (config_.churn.storm_interval_s > 0.0) {
    events_.push(config_.churn.storm_interval_s, EventKind::StormBegin);
  }
}

void Simulation::schedule_worker_lifetime(std::uint64_t worker_id) {
  if (!config_.churn.enabled) return;
  const SimTime leave =
      now_ + rng_.exponential(1.0 / config_.churn.mean_lifetime_s);
  events_.push(leave, EventKind::WorkerLeave, worker_id);
}

SimResult Simulation::run() {
  if (finished_) throw std::logic_error("Simulation: run() called twice");
  while (step()) {
  }
  return result();
}

bool Simulation::step() {
  if (!started_) {
    started_ = true;
    bootstrap();
  }
  if (core_.done()) {
    finished_ = true;
    return false;
  }
  if (events_.empty()) {
    // Churn disabled and every worker idle yet tasks still queued would be
    // a scheduling bug: any clamped allocation fits an empty worker.
    throw std::logic_error(
        "Simulation: event queue drained with " +
        std::to_string(core_.task_count() - core_.finished()) +
        " tasks unfinished");
  }
  // Batch drain: every event at the earliest pending clock value, one pass.
  // Events pushed by handlers at this same instant carry higher seqs than
  // anything already queued, so they pop after it — handling the run
  // front-to-back reproduces the legacy one-pop-per-step order exactly.
  // Single pops (not a prefetched run) so a mid-batch completion leaves the
  // unprocessed tail in the queue, exactly as the legacy engine would.
  const SimTime t = events_.next_time();
  do {
    handle(events_.pop());
  } while (!core_.done() && !events_.empty() && events_.next_time() == t);
  if (core_.done()) {
    finished_ = true;
    return false;
  }
  return true;
}

SimResult Simulation::result() const {
  SimResult r = result_;
  r.accounting = core_.accounting();
  r.tasks_completed = core_.completed();
  r.tasks_fatal = core_.fatal();
  r.evictions = core_.evictions();
  r.evicted_alloc_seconds = core_.evicted_alloc();
  r.resilience = res_counters_;
  r.resilience.storms_entered = storms_.storms_entered();
  r.resilience.storms_exited = storms_.storms_exited();
  return r;
}

void Simulation::accumulate_integrals(SimTime t) {
  // Accumulate pool commitment/capacity integrals over the elapsed span
  // (piecewise constant between events): one term per event from the
  // pool's exact totals, whose rounding depends on their value alone.
  const double dt = t - now_;
  if (dt > 0.0) {
    result_.committed_integral += pool_.committed_total().value() * dt;
    result_.capacity_integral += pool_.capacity_total().value() * dt;
    if (!core_.single_passthrough()) {
      // Per-tenant committed integral: the facade's running-allocation sum
      // is the tenant's share of the pool's commitment at this instant.
      for (core::tenancy::TenantId tn = 0; tn < core_.tenant_count(); ++tn) {
        tenant_committed_[tn] += core_.running_alloc(tn) * dt;
      }
    }
  }
}

void Simulation::handle(const Event& e) {
  accumulate_integrals(e.time);
  ++result_.events_processed;
  if (observer_) observer_->on_event(e);
  now_ = e.time;
  // Advance the storm window on every event so degraded mode can end
  // between evictions (no-op unless storm_control is enabled).
  storms_.update(now_);
  switch (e.kind) {
    case EventKind::TaskSubmit:
      on_submit(e.a);
      break;
    case EventKind::AttemptFinish:
      on_attempt_finish(e);
      break;
    case EventKind::WorkerJoin:
      on_worker_join();
      break;
    case EventKind::WorkerLeave:
      on_worker_leave(e.a);
      break;
    case EventKind::StormBegin:
      on_storm_begin();
      break;
    case EventKind::StormEnd:
      storm_active_ = false;
      dispatch();
      break;
    case EventKind::SpecCheck:
      on_spec_check(e);
      break;
    case EventKind::DeadlineKill:
      on_deadline_kill(e);
      break;
  }
}

void Simulation::on_submit(std::uint64_t task_id) {
  if (observer_) observer_->on_task_submitted(now_, task_id);
  core_.mark_submitted(task_id);
  dispatch();
}

void Simulation::on_worker_join() {
  // Regardless of admission, keep the Poisson process alive while work
  // remains.
  events_.push(now_ + rng_.exponential(1.0 / config_.churn.mean_interarrival_s),
               EventKind::WorkerJoin);
  if (storm_active_) return;  // the burst also starves the pool of joins
  if (pool_.size() >= config_.churn.max_workers) return;
  const std::uint64_t id = spawn_worker();
  ++result_.total_joins;
  if (observer_) observer_->on_worker_joined(now_, id);
  result_.peak_workers = std::max(result_.peak_workers, pool_.size());
  schedule_worker_lifetime(id);
  dispatch();
}

void Simulation::on_worker_leave(std::uint64_t worker_id) {
  if (!pool_.alive(worker_id)) return;  // already gone (defensive)
  if (pool_.size() <= config_.churn.min_workers) {
    // The paper's pool never shrinks below its lower bound; defer the
    // departure.
    events_.push(now_ + rng_.exponential(1.0 / config_.churn.mean_lifetime_s),
                 EventKind::WorkerLeave, worker_id);
    return;
  }
  evict_worker(worker_id);
  dispatch();
}

// Preemptive eviction (HTCondor-style): running attempts are cancelled and
// requeued with the same allocation. Their cost goes to the core's eviction
// ledger, never into the paper's waste metric (the algorithm did not cause
// the failure). Speculation changes two things: a lost DUPLICATE is
// charged to the speculative column instead (the primary elsewhere keeps
// running and gets its straggler check again), and a lost PRIMARY whose
// duplicate lives elsewhere is replaced by it instead of requeued.
void Simulation::evict_worker(std::uint64_t worker_id) {
  const Worker& w = pool_.worker(worker_id);
  scratch_victims_.assign(w.running_tasks().begin(), w.running_tasks().end());
  for (std::uint64_t task_id : scratch_victims_) {
    const core::resilience::Duplicate* copy = spec_.find(task_id);
    if (copy && copy->worker == worker_id) {
      spec_.duplicate_lost(*this, task_id, now_);
      arm_spec_check(task_id);
      continue;
    }
    const double elapsed = now_ - timing_[task_id].attempt_start;
    core_.charge_eviction(task_id, elapsed);
    ++timing_[task_id].epoch;  // invalidates the attempt's pending events
    storms_.on_eviction(now_);
    if (!spec_.primary_lost(*this, task_id, now_)) {
      core_.requeue_front(task_id);
    }
    if (observer_) observer_->on_task_evicted(now_, task_id, worker_id);
  }
  pool_.remove_worker(worker_id);
  ++result_.total_leaves;
  if (observer_) observer_->on_worker_left(now_, worker_id);
}

core::ResourceVector Simulation::pool_capacity() const {
  ResourceVector total;
  for (const auto& [wid, w] : pool_.workers()) total += w.capacity();
  return total;
}

void Simulation::dispatch() {
  // First-fit over the FIFO queue (the shared machine's dispatch pass);
  // tasks that do not fit anywhere stay queued in order.
  core_.dispatch_pass(*this);
}

std::optional<std::uint64_t> Simulation::place(std::uint64_t,
                                               const ResourceVector& alloc) {
  // Degraded mode's in-flight cap: a held probe is counted and the task
  // stays queued in order.
  if (storms_.degraded() &&
      inflight() >= config_.resilience.degraded_inflight_cap) {
    ++res_counters_.dispatches_held;
    return std::nullopt;
  }
  return pool_.find_worker_for(alloc, config_.placement);
}

bool Simulation::may_place(const ResourceVector& floor) const {
  // While degraded, place may hold a probe and count it: keep probing.
  return storms_.degraded() || pool_.may_fit(floor);
}

void Simulation::commit(std::uint64_t task_id, std::uint64_t worker_id,
                        const ResourceVector& alloc) {
  const core::TaskSpec& spec = tasks_[task_id];
  pool_.start(worker_id, task_id, alloc);
  if (observer_) {
    observer_->on_attempt_started(now_, task_id, worker_id, alloc);
  }
  timing_[task_id].attempt_start = now_;
  // The enforcement model decides how long this attempt runs: the full
  // duration when the allocation covers the demand, otherwise until the
  // consumption ramp crosses the allocation (or the wall-time limit).
  timing_[task_id].attempt_runtime = attempt_runtime(
      spec, alloc, core_.managed(), config_.monitor_interval_s);
  arm(task_id, worker_id);
}

void Simulation::arm(std::uint64_t task_id, std::uint64_t worker_id) {
  const TimingState& t = timing_[task_id];
  events_.push(t.attempt_start + t.attempt_runtime, EventKind::AttemptFinish,
               task_id, worker_id, t.epoch);
  if (!config_.resilience.enabled()) return;
  arm_spec_check(task_id);
  // The adaptive deadline, when the enforcement model would let the attempt
  // outlive it; everything else finishes (or is killed) first anyway.
  if (!config_.resilience.deadlines ||
      !deadlines_.adaptive(core_.category_of(task_id))) {
    return;
  }
  const double eff = deadline(task_id);
  if (eff < t.attempt_runtime) {
    events_.push(std::max(now_, t.attempt_start + eff),
                 EventKind::DeadlineKill, task_id, 0, t.epoch);
  }
}

void Simulation::arm_spec_check(std::uint64_t task_id) {
  if (!config_.resilience.speculation) return;
  if (const auto thr =
          deadlines_.straggler_threshold(core_.category_of(task_id))) {
    const TimingState& t = timing_[task_id];
    events_.push(std::max(now_, t.attempt_start + *thr), EventKind::SpecCheck,
                 task_id, 0, t.epoch);
  }
}

double Simulation::deadline(std::uint64_t task_id) {
  const double widen =
      storms_.degraded() ? config_.resilience.degraded_deadline_widen : 1.0;
  double eff = deadlines_.deadline(core_.category_of(task_id), 0.0, widen);
  for (std::uint32_t s = 0; s < deadline_strikes_[task_id]; ++s) eff *= 2.0;
  return eff;
}

void Simulation::on_spec_check(const Event& e) {
  const std::uint64_t task_id = e.a;
  const auto& entry = core_.entry(task_id);
  if (e.epoch != timing_[task_id].epoch || entry.phase != TaskPhase::Running) {
    return;  // the watched attempt already ended
  }
  const auto gate = spec_.gate(task_id, core_.category_of(task_id),
                               timing_[task_id].attempt_start, now_,
                               storms_.degraded(), churn_evidence(),
                               deadlines_);
  if (!gate.open) return;
  if (!gate.passed) {
    // The threshold grew since this check was scheduled; re-arm.
    events_.push(gate.due, EventKind::SpecCheck, task_id, 0, e.epoch);
    return;
  }
  const auto worker =
      pool_.find_worker_for(entry.alloc, config_.placement, entry.running_on);
  if (!worker) return;
  // Same spec, same allocation, same enforcement model: the duplicate runs
  // exactly as long as the primary would, so it matters only once promoted.
  pool_.start(*worker, task_id, entry.alloc);
  spec_.launch(task_id, *worker, now_);
}

void Simulation::promote_copy(std::uint64_t task_id,
                              const core::resilience::Duplicate& copy) {
  // The copy already holds its worker; it runs the primary's model runtime
  // from its own start. The lost primary's epoch bump voided the old events.
  core_.rebind_running(task_id, copy.worker);
  timing_[task_id].attempt_start = copy.start;
  arm(task_id, copy.worker);
}

void Simulation::on_deadline_kill(const Event& e) {
  const std::uint64_t task_id = e.a;
  const auto& res = config_.resilience;
  if (!res.deadlines) return;
  const auto& entry = core_.entry(task_id);
  if (e.epoch != timing_[task_id].epoch || entry.phase != TaskPhase::Running) {
    return;
  }
  if (!churn_evidence()) return;  // calm run: never second-guess the model
  if (!deadlines_.adaptive(core_.category_of(task_id))) return;
  const SimTime due = timing_[task_id].attempt_start + deadline(task_id);
  if (due > now_) {
    // The deadline widened (storm) since this kill was scheduled; re-arm.
    events_.push(due, EventKind::DeadlineKill, task_id, 0, e.epoch);
    return;
  }
  // The attempt outlived its adaptive deadline: kill it, and requeue with
  // the same allocation unless a live duplicate takes over. Like the
  // protocol's attempt timeout this is an infrastructure loss — charged to
  // neither the waste metric nor the eviction ledger. Each strike doubles
  // the task's next deadline so a task genuinely longer than its category's
  // quantile still terminates.
  pool_.finish(entry.running_on, task_id, entry.alloc);
  ++timing_[task_id].epoch;
  ++deadline_strikes_[task_id];
  ++res_counters_.adaptive_deadlines_used;
  if (!spec_.primary_lost(*this, task_id, now_)) {
    core_.requeue_front(task_id);
  }
  dispatch();
}

void Simulation::on_storm_begin() {
  storm_active_ = true;
  events_.push(now_ + config_.churn.storm_duration_s, EventKind::StormEnd);
  events_.push(now_ + config_.churn.storm_interval_s, EventKind::StormBegin);
  scratch_alive_.clear();
  scratch_alive_.reserve(pool_.size());
  for (const auto& [id, w] : pool_.workers()) scratch_alive_.push_back(id);
  for (std::uint64_t id : scratch_alive_) {
    if (pool_.size() <= 1) break;  // keep one worker so the run can progress
    if (rng_.uniform01() < config_.churn.storm_evict_fraction) {
      evict_worker(id);
    }
  }
  dispatch();
}

void Simulation::on_attempt_finish(const Event& e) {
  const std::uint64_t task_id = e.a;
  const auto& entry = core_.entry(task_id);
  if (e.epoch != timing_[task_id].epoch || entry.phase != TaskPhase::Running ||
      entry.running_on != e.b) {
    return;  // stale: the attempt was evicted before it finished
  }
  // The primary delivered first: the duplicate (if any) lost the race.
  spec_.primary_delivered(*this, task_id, now_);
  pool_.finish(e.b, task_id, entry.alloc);
  const core::TaskSpec& spec = tasks_[task_id];
  if (spec.demand.fits_within(entry.alloc, core_.managed())) {
    complete_task(task_id);
  } else {
    fail_attempt(task_id, timing_[task_id].attempt_runtime);
  }
  dispatch();
}

void Simulation::complete_task(std::uint64_t task_id) {
  const core::TaskSpec& spec = tasks_[task_id];
  if (observer_) observer_->on_task_completed(now_, task_id);
  result_.makespan_s = std::max(result_.makespan_s, now_);
  // The simulator reveals the ground truth on success: the measured peak is
  // the task's true demand and the runtime its full duration.
  core_.complete(task_id, spec.demand, spec.duration_s);
}

void Simulation::fail_attempt(std::uint64_t task_id, SimTime runtime) {
  const core::TaskSpec& spec = tasks_[task_id];
  ++timing_[task_id].epoch;
  const unsigned mask =
      spec.demand.exceeded_mask(core_.entry(task_id).alloc, core_.managed());
  if (observer_) observer_->on_attempt_failed(now_, task_id, mask);
  core_.fail_attempt(task_id, runtime, mask);
}

void Simulation::task_fatal(std::uint64_t task_id) {
  if (observer_) observer_->on_task_fatal(now_, task_id);
  util::log_warn("task ", task_id, " (", tasks_[task_id].category,
                 ") is unrunnable: demand exceeds pool capacity or attempt "
                 "limit reached");
}

void Simulation::task_completed(std::uint64_t task_id,
                                const core::ResourceVector& /*measured_peak*/,
                                double runtime_s) {
  // Feed the category's wall-time histogram. Only successful attempts count:
  // killed attempts end early and would drag the quantiles toward the
  // enforcement model's kill times instead of real category runtimes.
  if (config_.resilience.deadlines || config_.resilience.speculation) {
    deadlines_.observe(core_.category_of(task_id), runtime_s);
  }
  tenant_makespan_[core_.tenant_of(task_id)] = now_;
}

void Simulation::save_state(util::ByteWriter& w) const {
  core::snapshot::save(w, *this);
}

void Simulation::load_state(util::ByteReader& r) {
  if (started_) {
    throw std::logic_error(
        "Simulation: load_state must precede the first step()/run()");
  }
  core::snapshot::load(r, *this);
}

void Simulation::after_load() {
  spec_.check_table([this](std::uint64_t task_id,
                           const core::resilience::Duplicate& copy) {
    return task_id < core_.task_count() &&
           core_.entry(task_id).phase == TaskPhase::Running &&
           copy.worker != core_.entry(task_id).running_on &&
           pool_.alive(copy.worker) &&
           pool_.worker(copy.worker).running_tasks().count(task_id) != 0 &&
           copy.start <= now_;
  });
}

std::vector<core::TenantOutcome> Simulation::tenant_outcomes() const {
  std::vector<core::TenantOutcome> out(core_.tenant_count());
  for (core::tenancy::TenantId t = 0; t < core_.tenant_count(); ++t) {
    const core::tenancy::TenantSpec& spec = core_.tenant(t);
    const core::lifecycle::DispatchCore& c = core_.tenant_core(t);
    core::TenantOutcome& o = out[t];
    o.name = spec.name;
    o.weight = spec.weight;
    o.tasks = c.task_count();
    o.completed = c.completed();
    o.fatal = c.fatal();
    o.makespan_s =
        core_.single_passthrough() ? result_.makespan_s : tenant_makespan_[t];
    o.committed_integral = core_.single_passthrough()
                               ? result_.committed_integral
                               : tenant_committed_[t];
    const core::WasteAccounting& acc = c.accounting();
    o.awe_cores = acc.awe(ResourceKind::Cores);
    o.waste_total = 0.0;
    for (ResourceKind k : core_.managed()) {
      o.waste_total += acc.breakdown(k).total_waste();
    }
    o.granted = core_.arbiter().granted_total(t);
    o.credit = core_.arbiter().credit(t);
  }
  core::finalize_tenant_shares(out);
  return out;
}

}  // namespace tora::sim
