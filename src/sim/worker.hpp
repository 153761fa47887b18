#pragma once

#include <cstdint>
#include <set>

#include "core/exact_resources.hpp"
#include "core/resources.hpp"
#include "core/snapshot_fields.hpp"

namespace tora::sim {

/// One opportunistic worker node: fixed capacity, tracks the resources
/// currently committed to running attempts and enforces that commitments
/// never exceed capacity. Matches the paper's worker role (Fig. 1): a worker
/// "allocates the specified portion of its resources to the task".
class Worker {
 public:
  Worker(std::uint64_t id, const core::ResourceVector& capacity);
  /// An empty worker (id 0, no capacity) for a snapshot load to fill.
  Worker() = default;

  std::uint64_t id() const noexcept { return id_; }
  const core::ResourceVector& capacity() const noexcept { return capacity_; }
  const core::ResourceVector& committed() const noexcept { return committed_; }
  /// The same commitment held exactly: the sum of the running attempts'
  /// allocations, without the float running sum's rounding. Zero once the
  /// worker is idle.
  const core::ExactResources& exact_committed() const noexcept {
    return exact_committed_;
  }

  /// Free amount per managed dimension.
  core::ResourceVector free() const noexcept;

  /// True iff an allocation of `alloc` fits in the current free resources.
  bool can_fit(const core::ResourceVector& alloc) const noexcept;

  /// Per managed dimension, an upper bound on every allocation can_fit
  /// accepts: the worker's leaf in the pool's placement index
  /// (core/lifecycle/placement_index.hpp). Slightly loose, never tight.
  core::ResourceVector fit_bound() const noexcept;

  /// Commits `alloc` to task `task_id` and returns the amount committed,
  /// exactly. Throws std::logic_error if it does not fit or the task is
  /// already running here, and core::ExactRangeError for an amount outside
  /// the exact range (before changing anything).
  core::ExactResources start(std::uint64_t task_id,
                             const core::ResourceVector& alloc);

  /// Releases the commitment of task `task_id` and returns the amount
  /// released, exactly. Throws std::logic_error if the task is not running
  /// here, or if the last release leaves an exact commitment behind (a
  /// release of another amount than was committed).
  core::ExactResources finish(std::uint64_t task_id,
                              const core::ResourceVector& alloc);

  std::size_t running_count() const noexcept { return running_.size(); }
  const std::set<std::uint64_t>& running_tasks() const noexcept {
    return running_;
  }

  /// Snapshot fields for simulation resume (the pool's map key is the id;
  /// the pool saves the exact commitments after the workers). Load refuses
  /// a capacity outside the exact range [0, 2^40] on any dimension or not
  /// > 0 on a managed one, and a commitment that is not finite and within
  /// [0, capacity·(1 + 1e-9)] on a managed dimension.
  static constexpr auto fields() {
    using W = Worker;
    using core::snapshot::field, core::snapshot::kFinite;
    return core::snapshot::section(
        "Worker", &W::after_load, field("capacity", &W::capacity_, kFinite),
        field("committed", &W::committed_, kFinite),
        field("running", &W::running_));
  }

 private:
  // The pool sets id_ from its map key and exact_committed_ from its own
  // field on load.
  friend class WorkerPool;
  void after_load();

  std::uint64_t id_ = 0;
  core::ResourceVector capacity_;
  core::ResourceVector committed_;
  core::ExactResources exact_committed_;
  std::set<std::uint64_t> running_;
};

}  // namespace tora::sim
