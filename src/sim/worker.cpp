#include "sim/worker.hpp"

#include <cmath>
#include <stdexcept>

namespace tora::sim {

using core::ResourceKind;
using core::ResourceVector;

namespace {

// A small relative epsilon absorbs accumulated floating-point error from
// repeated commit/release cycles.
constexpr double kEps = 1e-9;

}  // namespace

Worker::Worker(std::uint64_t id, const ResourceVector& capacity)
    : id_(id), capacity_(capacity) {
  for (ResourceKind k : core::kManagedResources) {
    if (!(capacity[k] > 0.0)) {
      throw std::invalid_argument("Worker: capacity must be positive");
    }
  }
}

ResourceVector Worker::free() const noexcept {
  return capacity_ - committed_;
}

bool Worker::can_fit(const ResourceVector& alloc) const noexcept {
  for (ResourceKind k : core::kManagedResources) {
    if (committed_[k] + alloc[k] > capacity_[k] * (1.0 + kEps)) return false;
  }
  return true;
}

// can_fit accepts `a` iff fl(c + a) <= L on every dimension, where c is the
// commitment and L = fl(capacity·(1 + kEps)). fit_bound returns
// fl(fl(L - c) + m) with m = capacity·2^-40, which is >= every accepted `a`.
// Let u be the gap from L to the next double up: doubles in [0, L] are at
// most u apart and doubles in [0, 2L] at most 2u apart, so rounding a value
// in those ranges moves it by at most u/2 and u. With a >= 0 and
// 0 <= c <= L (start commits only what can_fit accepted, finish clamps
// release dust at 0, load_state checks both):
//  1. fl(c + a) <= L and rounding is monotone, so c + a <= L + u/2.
//  2. L - c is in [0, L], so x = fl(L - c) >= L - c - u/2; by 1, a <= x + u.
//  3. x + m is in [0, 2L], so fl(x + m) >= x + m - u >= x + u >= a, since
//     m >= 2u: u <= L·2^-52 and L < 2·capacity.
// The margin scales with the capacity, never with the headroom: near zero
// headroom an ulp of L, not of L - c, decides can_fit's comparison.
ResourceVector Worker::fit_bound() const noexcept {
  ResourceVector bound;
  for (ResourceKind k : core::kManagedResources) {
    bound[k] = (capacity_[k] * (1.0 + kEps) - committed_[k]) +
               capacity_[k] * 0x1p-40;
  }
  return bound;
}

core::ExactResources Worker::start(std::uint64_t task_id,
                                  const ResourceVector& alloc) {
  if (!can_fit(alloc)) {
    throw std::logic_error("Worker: allocation does not fit");
  }
  const core::ExactResources exact(alloc, "Worker: allocation");
  if (!running_.insert(task_id).second) {
    throw std::logic_error("Worker: task already running here");
  }
  committed_ += alloc;
  exact_committed_ += exact;
  return exact;
}

core::ExactResources Worker::finish(std::uint64_t task_id,
                                   const ResourceVector& alloc) {
  const core::ExactResources exact(alloc, "Worker: allocation");
  if (running_.erase(task_id) == 0) {
    throw std::logic_error("Worker: finishing a task that is not running here");
  }
  exact_committed_ -= exact;
  if (running_.empty() && !exact_committed_.is_zero()) {
    throw std::logic_error(
        "Worker: released another amount than was committed");
  }
  committed_ -= alloc;
  // Clamp tiny negative residue from floating-point arithmetic.
  for (ResourceKind k : core::kManagedResources) {
    if (committed_[k] < 0.0 && committed_[k] > -1e-6) committed_[k] = 0.0;
  }
  if (!committed_.non_negative()) {
    throw std::logic_error("Worker: commitment went negative");
  }
  return exact;
}

void Worker::after_load() {
  try {
    (void)core::ExactResources(capacity_);
  } catch (const core::ExactRangeError& e) {
    throw core::SnapshotError("Worker", "capacity", e.what());
  }
  for (ResourceKind k : core::kManagedResources) {
    if (!(capacity_[k] > 0.0)) {
      throw core::SnapshotError("Worker", "capacity",
                                "must be finite and > 0");
    }
    if (!(committed_[k] >= 0.0 && committed_[k] <= capacity_[k] * (1.0 + kEps))) {
      throw core::SnapshotError("Worker", "committed",
                                "must be finite and within [0, capacity]");
    }
  }
}

}  // namespace tora::sim
