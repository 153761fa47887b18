#include "sim/worker_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace tora::sim {

using core::lifecycle::PlacementIndex;

namespace {

/// Slots a compaction leaves room for at the least.
constexpr std::size_t kMinSlots = 16;

}  // namespace

std::uint64_t WorkerPool::add_worker() { return add_worker(capacity_); }

std::uint64_t WorkerPool::add_worker(const core::ResourceVector& capacity) {
  core::ExactResources total = capacity_total_;
  total += core::ExactResources(capacity, "WorkerPool: worker capacity");
  const std::uint64_t id = next_id_;
  Worker& w = workers_.emplace(id, Worker(id, capacity)).first->second;
  ++next_id_;
  capacity_total_ = total;
  if (slots_.size() == index_.slots()) compact();
  slots_.push_back({id, &w});
  refresh(slots_.size() - 1);
  return id;
}

std::vector<std::uint64_t> WorkerPool::remove_worker(std::uint64_t id) {
  const auto [w, slot] = locate(id);
  std::vector<std::uint64_t> tasks(w->running_tasks().begin(),
                                   w->running_tasks().end());
  committed_total_ -= w->exact_committed();
  capacity_total_ -= core::ExactResources(w->capacity());
  slots_[slot].worker = nullptr;
  index_.set(slot, PlacementIndex::kAbsent);
  workers_.erase(id);
  return tasks;
}

const Worker& WorkerPool::worker(std::uint64_t id) const {
  return *locate(id).first;
}

void WorkerPool::start(std::uint64_t id, std::uint64_t task_id,
                       const core::ResourceVector& alloc) {
  const auto [w, slot] = locate(id);
  committed_total_ += w->start(task_id, alloc);
  refresh(slot);
}

void WorkerPool::finish(std::uint64_t id, std::uint64_t task_id,
                        const core::ResourceVector& alloc) {
  const auto [w, slot] = locate(id);
  committed_total_ -= w->finish(task_id, alloc);
  refresh(slot);
}

std::pair<Worker*, std::size_t> WorkerPool::locate(std::uint64_t id) const {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& s, std::uint64_t v) { return s.id < v; });
  if (it == slots_.end() || it->id != id || it->worker == nullptr) {
    throw std::logic_error("WorkerPool: unknown worker");
  }
  return {it->worker, static_cast<std::size_t>(it - slots_.begin())};
}

void WorkerPool::refresh(std::size_t slot) {
  index_.set(slot, slots_[slot].worker->fit_bound());
}

void WorkerPool::compact() {
  std::erase_if(slots_, [](const Slot& s) { return s.worker == nullptr; });
  std::vector<core::ResourceVector> bounds;
  bounds.reserve(slots_.size());
  for (const Slot& s : slots_) bounds.push_back(s.worker->fit_bound());
  index_.reset(std::max(kMinSlots, 2 * slots_.size()), bounds);
}

namespace {

/// Normalized slack remaining on `w` after hypothetically placing `alloc`:
/// the sum over spatial dimensions of free-after-placement as a fraction of
/// the worker's capacity. Smaller = tighter fit.
double slack_after(const Worker& w, const core::ResourceVector& alloc) {
  double slack = 0.0;
  const core::ResourceVector free = w.free();
  for (core::ResourceKind k : core::kManagedResources) {
    if (w.capacity()[k] > 0.0) {
      slack += (free[k] - alloc[k]) / w.capacity()[k];
    }
  }
  return slack;
}

}  // namespace

std::optional<std::uint64_t> WorkerPool::find_worker_for(
    const core::ResourceVector& alloc, Placement placement,
    std::optional<std::uint64_t> exclude) const {
  // The index prunes; can_fit decides at every leaf it admits.
  const auto fits = [&](std::size_t slot) {
    const Worker& w = *slots_[slot].worker;
    return !(exclude && w.id() == *exclude) && w.can_fit(alloc);
  };
  if (placement == Placement::FirstFit) {
    const auto slot = index_.first_fit(alloc, fits);
    if (!slot) return std::nullopt;
    return slots_[*slot].id;
  }
  std::optional<std::uint64_t> best;
  double best_slack = 0.0;
  index_.for_each_fit(alloc, [&](std::size_t slot) {
    if (!fits(slot)) return;
    const double slack = slack_after(*slots_[slot].worker, alloc);
    const bool better = placement == Placement::BestFit ? slack < best_slack
                                                        : slack > best_slack;
    if (!best || better) {
      best = slots_[slot].id;
      best_slack = slack;
    }
  });
  return best;
}

std::vector<core::ExactResources::Words> WorkerPool::exact_committed_words(
    const WorkerPool& pool) {
  std::vector<core::ExactResources::Words> out;
  out.reserve(pool.workers_.size());
  for (const auto& [id, w] : pool.workers_) {
    out.push_back(w.exact_committed().words());
  }
  return out;
}

void WorkerPool::set_exact_committed(
    WorkerPool& pool, std::vector<core::ExactResources::Words> words) {
  if (words.size() != pool.workers_.size()) {
    throw core::SnapshotError(
        "WorkerPool", "exact_committed",
        "one per worker: " + core::snapshot::mismatch(pool.workers_.size(),
                                                      words.size()));
  }
  auto w = words.begin();
  for (auto& [id, worker] : pool.workers_) {
    worker.exact_committed_ = core::ExactResources::from_words(*w++);
  }
}

void WorkerPool::after_load() {
  slots_.clear();
  index_.reset(0);
  committed_total_ = {};
  capacity_total_ = {};
  for (auto& [id, worker] : workers_) {
    if (id >= next_id_) {
      throw core::SnapshotError("WorkerPool", "workers",
                                "id " + std::to_string(id) +
                                    " must stay below next_id " +
                                    std::to_string(next_id_));
    }
    worker.id_ = id;
    const core::ExactResources& exact = worker.exact_committed();
    const core::ResourceVector value = exact.value();
    bool ok = exact.non_negative() &&
              (worker.running_count() > 0 || exact.is_zero());
    for (core::ResourceKind k : core::kManagedResources) {
      ok = ok && value[k] <= worker.capacity()[k] * (1.0 + 1e-9);
    }
    if (!ok) {
      throw core::SnapshotError(
          "WorkerPool", "exact_committed",
          "worker " + std::to_string(id) +
              ": must be >= 0, within capacity and 0 on an idle worker");
    }
    try {
      committed_total_ += exact;
    } catch (const core::ExactRangeError& e) {
      throw core::SnapshotError("WorkerPool", "exact_committed", e.what());
    }
    try {
      capacity_total_ += core::ExactResources(worker.capacity());
    } catch (const core::ExactRangeError& e) {
      throw core::SnapshotError("WorkerPool", "workers", e.what());
    }
    slots_.push_back({id, &worker});
  }
  compact();
}

}  // namespace tora::sim
