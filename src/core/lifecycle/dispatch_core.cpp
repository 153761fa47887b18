#include "core/lifecycle/dispatch_core.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace tora::core::lifecycle {

DispatchCore::DispatchCore(std::span<const TaskSpec> tasks,
                           TaskAllocator& allocator, DispatchConfig config,
                           RuntimeHooks& hooks)
    : tasks_(tasks),
      allocator_(allocator),
      config_(config),
      hooks_(hooks),
      entries_(tasks.size()),
      dependents_(tasks.size()) {
  alloc_category_.reserve(tasks.size());
  acct_category_.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].id != i) {
      throw std::invalid_argument(
          "DispatchCore: task ids must be dense and in submission order");
    }
    entries_[i].deps_remaining = tasks_[i].deps.size();
    for (std::uint64_t dep : tasks_[i].deps) {
      if (dep >= i) {
        throw std::invalid_argument(
            "DispatchCore: dependency ids must be smaller than the task id");
      }
      dependents_[dep].push_back(i);
    }
    // The only per-task string work in the whole lifecycle: one intern into
    // each table. Everything downstream is a dense index.
    alloc_category_.push_back(allocator_.intern(tasks_[i].category));
    acct_category_.push_back(accounting_.intern(tasks_[i].category));
  }
  allocator_.reserve_history(tasks_.size());
  queued_first_.resize(allocator_.category_count());
  active_pos_.resize(allocator_.category_count());
  queued_retry_.resize(allocator_.config().managed.size());
}

void DispatchCore::start() {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    entries_[i].submitted = true;
    maybe_ready(i);
  }
}

void DispatchCore::mark_submitted(std::uint64_t task_id) {
  entries_[task_id].submitted = true;
  maybe_ready(task_id);
}

void DispatchCore::maybe_ready(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (!e.submitted || e.deps_remaining > 0 || e.phase != TaskPhase::Pending) {
    return;
  }
  e.phase = TaskPhase::Queued;
  ready_.push_back(task_id);
  track_queue(task_id, true);
}

ResourceVector DispatchCore::inflated(ResourceVector alloc) const {
  if (config_.alloc_inflation != 1.0) {
    for (ResourceKind k : allocator_.config().managed) {
      alloc[k] = std::min(alloc[k] * config_.alloc_inflation,
                          allocator_.config().worker_capacity[k]);
    }
  }
  return alloc;
}

void DispatchCore::ensure_allocation(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  const CategoryId category = alloc_category_[task_id];
  if (e.has_alloc &&
      (e.is_retry || e.alloc_revision == allocator_.version(category))) {
    return;
  }
  e.alloc = inflated(allocator_.allocate(category));
  e.has_alloc = true;
  e.alloc_revision = allocator_.version(category);
  hooks_.allocation_committed(task_id, e.alloc, false);
}

void DispatchCore::track_queue(std::uint64_t task_id, bool entered) {
  const TaskEntry& e = entries_[task_id];
  if (e.is_retry) {
    const auto& managed = allocator_.config().managed;
    for (std::size_t i = 0; i < managed.size(); ++i) {
      std::multiset<double>& values = queued_retry_[i];
      if (entered) {
        values.insert(e.alloc[managed[i]]);
      } else if (const auto it = values.find(e.alloc[managed[i]]);
                 it != values.end()) {
        values.erase(it);
      }
    }
    return;
  }
  const CategoryId c = alloc_category_[task_id];
  if (entered) {
    if (queued_first_[c]++ == 0) {
      active_pos_[c] = static_cast<std::uint32_t>(active_.size());
      active_.push_back(c);
    }
  } else if (queued_first_[c] > 0 && --queued_first_[c] == 0) {
    const CategoryId last = active_.back();
    active_[active_pos_[c]] = last;
    active_pos_[last] = active_pos_[c];
    active_.pop_back();
  }
}

ResourceVector DispatchCore::queue_floor(bool* deterministic) {
  // A retry allocation never changes while queued; a first attempt presents
  // at least its category's floor (a cached allocation of an unmoved
  // version came from the same policy state). Unmanaged dimensions stay 0,
  // a valid bound for non-negative allocations.
  const auto& managed = allocator_.config().managed;
  ResourceVector floor;
  for (std::size_t i = 0; i < managed.size(); ++i) {
    floor[managed[i]] = queued_retry_[i].empty()
                            ? std::numeric_limits<double>::infinity()
                            : *queued_retry_[i].begin();
  }
  *deterministic = true;
  for (CategoryId c : active_) {
    const ResourceVector f = inflated(allocator_.allocation_floor(c));
    for (ResourceKind k : managed) floor[k] = std::min(floor[k], f[k]);
    *deterministic = *deterministic && allocator_.deterministic(c);
  }
  return floor;
}

std::size_t DispatchCore::dispatch_pass(DispatchDriver& driver,
                                        std::size_t max_placements) {
  // One pass suffices: placements only shrink the free space, so a task
  // that did not fit now will not fit later in the same pass. The queue is
  // compacted in place: tasks that stay (deferred or unplaced) are written
  // back to its front in scan order, and the tasks never scanned (placement
  // quota reached, or nothing fits) follow them.
  const std::size_t queued = ready_.size();
  if (queued == 0) return 0;
  // A driver cannot re-enter the core, so the allocator and the floor stay
  // fixed for the whole pass; placing tasks only raises the true floor.
  bool deterministic = true;
  const ResourceVector floor = queue_floor(&deterministic);
  bool may_place = driver.may_place(floor);
  std::size_t scanned = 0;
  std::size_t kept = 0;
  std::size_t placed = 0;
  while (may_place && scanned < queued && placed < max_placements) {
    const std::uint64_t task_id = ready_[scanned++];
    if (driver.defer(task_id)) {
      ready_[kept++] = task_id;
      continue;
    }
    ensure_allocation(task_id);
    TaskEntry& e = entries_[task_id];
    if (const auto worker = driver.place(task_id, e.alloc)) {
      track_queue(task_id, false);
      if (config_.max_attempts > 0 && e.attempts >= config_.max_attempts) {
        make_fatal(task_id);
        continue;
      }
      ++e.attempts;
      e.phase = TaskPhase::Running;
      e.running_on = *worker;
      // Hook before the commit: the write-ahead journal must record the
      // dispatch before the commit sends anything over a wire.
      hooks_.task_dispatched(task_id, *worker, e.attempts);
      driver.commit(task_id, *worker, e.alloc);
      ++placed;
      may_place = driver.may_place(floor);
    } else {
      ready_[kept++] = task_id;
    }
  }
  if (!may_place && !deterministic && placed < max_placements) {
    // Nothing fits, but refreshing a sampling category draws from its
    // stream and fires allocation_committed: finish the scan without
    // probing, so the rest see the defers, draws and hooks of a full scan.
    for (; scanned < queued; ++scanned) {
      const std::uint64_t task_id = ready_[scanned];
      ready_[kept++] = task_id;
      if (!driver.defer(task_id)) ensure_allocation(task_id);
    }
  }
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(kept),
               ready_.begin() + static_cast<std::ptrdiff_t>(scanned));
  return placed;
}

double DispatchCore::significance_for(const TaskSpec& spec) const {
  // The paper's rule (§V-A): significance = task id (1-based), so recent
  // submissions dominate the bucketing state. Constant is the no-recency
  // ablation.
  return config_.significance == DispatchConfig::Significance::TaskId
             ? static_cast<double>(spec.id) + 1.0
             : 1.0;
}

void DispatchCore::complete(std::uint64_t task_id,
                            const ResourceVector& measured_peak,
                            double runtime_s) {
  TaskEntry& e = entries_[task_id];
  const TaskSpec& spec = tasks_[task_id];
  e.phase = TaskPhase::Done;
  ++completed_;
  ++finished_;

  accounting_.add(acct_category_[task_id], measured_peak, e.alloc, runtime_s,
                  e.failed_attempts);
  allocator_.record_completion(alloc_category_[task_id], measured_peak,
                               significance_for(spec));

  // Release dependents whose last dependency this was.
  for (std::uint64_t dep : dependents_[task_id]) {
    TaskEntry& d = entries_[dep];
    if (d.deps_remaining > 0) {
      --d.deps_remaining;
      maybe_ready(dep);
    }
  }
  hooks_.task_completed(task_id, measured_peak, runtime_s);
}

DispatchCore::RetryVerdict DispatchCore::fail_attempt(std::uint64_t task_id,
                                                      double runtime_s,
                                                      unsigned exceeded_mask) {
  TaskEntry& e = entries_[task_id];
  e.failed_attempts.push_back({e.alloc, runtime_s});
  const auto fail_fatal = [&] {
    hooks_.task_failed_attempt(task_id, runtime_s, exceeded_mask, false);
    make_fatal(task_id);
    return RetryVerdict::Fatal;
  };
  if (config_.max_allocation_failures > 0 &&
      e.failed_attempts.size() >= config_.max_allocation_failures) {
    return fail_fatal();
  }
  if (exceeded_mask == 0) {
    util::log_warn("lifecycle: exhausted attempt without exceeded mask");
    return fail_fatal();
  }
  const ResourceVector next = allocator_.allocate_retry(
      alloc_category_[task_id], e.alloc, exceeded_mask);
  // If every exceeded dimension is pinned at worker capacity the task can
  // never run in this pool.
  bool grew = false;
  for (ResourceKind k : allocator_.config().managed) {
    if ((exceeded_mask & resource_bit(k)) && next[k] > e.alloc[k]) {
      grew = true;
      break;
    }
  }
  if (!grew) {
    return fail_fatal();
  }
  e.alloc = next;
  e.is_retry = true;
  e.phase = TaskPhase::Queued;
  ready_.push_back(task_id);
  track_queue(task_id, true);
  hooks_.allocation_committed(task_id, next, true);
  hooks_.task_failed_attempt(task_id, runtime_s, exceeded_mask, true);
  return RetryVerdict::Requeued;
}

void DispatchCore::requeue_front(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (e.phase != TaskPhase::Running) return;
  e.phase = TaskPhase::Queued;
  ready_.push_front(task_id);
  track_queue(task_id, true);
  hooks_.task_requeued(task_id);
}

void DispatchCore::charge_eviction(std::uint64_t task_id, double scale) {
  evicted_alloc_ += entries_[task_id].alloc * scale;
  ++evictions_;
  hooks_.task_evicted(task_id, scale);
}

void DispatchCore::charge_speculation(std::uint64_t task_id, double scale) {
  const TaskEntry& e = entries_[task_id];
  accounting_.add_speculative(acct_category_[task_id], e.alloc, scale);
}

void DispatchCore::rebind_running(std::uint64_t task_id, std::uint64_t worker) {
  TaskEntry& e = entries_[task_id];
  if (e.phase != TaskPhase::Running) {
    throw std::logic_error("DispatchCore: rebind of a task that is not Running");
  }
  e.running_on = worker;
}

void DispatchCore::after_load() {
  std::vector<char> listed(entries_.size(), 0);
  for (std::uint64_t id : ready_) {
    if (id >= entries_.size() || listed[id] ||
        entries_[id].phase != TaskPhase::Queued) {
      throw SnapshotError("DispatchCore", "ready_queue",
                          "id " + std::to_string(id) +
                              " must name a Queued task once");
    }
    listed[id] = 1;
  }
  std::fill(queued_first_.begin(), queued_first_.end(), 0);
  active_.clear();
  for (std::multiset<double>& values : queued_retry_) values.clear();
  for (std::uint64_t id : ready_) track_queue(id, true);
}

void DispatchCore::make_fatal(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (e.phase == TaskPhase::Fatal) return;
  e.phase = TaskPhase::Fatal;
  ++fatal_;
  ++finished_;
  hooks_.task_fatal(task_id);
  // Dependents can never run: cascade the failure so the run terminates.
  for (std::uint64_t dep : dependents_[task_id]) {
    make_fatal(dep);
  }
}

}  // namespace tora::core::lifecycle
