#include "sim/worker.hpp"

#include <cmath>
#include <stdexcept>

#include "util/bytes.hpp"

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

void Worker::start(std::uint64_t task_id, const ResourceVector& alloc) {
  if (!can_fit(alloc)) {
    throw std::logic_error("Worker: allocation does not fit");
  }
  if (!running_.insert(task_id).second) {
    throw std::logic_error("Worker: task already running here");
  }
  committed_ += alloc;
}

void Worker::finish(std::uint64_t task_id, const ResourceVector& alloc) {
  if (running_.erase(task_id) == 0) {
    throw std::logic_error("Worker: finishing a task that is not running here");
  }
  committed_ -= alloc;
  // Clamp tiny negative residue from floating-point arithmetic.
  for (ResourceKind k : core::kManagedResources) {
    if (committed_[k] < 0.0 && committed_[k] > -1e-6) committed_[k] = 0.0;
  }
  if (!committed_.non_negative()) {
    throw std::logic_error("Worker: commitment went negative");
  }
}

void Worker::save_state(util::ByteWriter& w) const {
  w.u64(id_);
  for (ResourceKind k : core::kAllResources) w.f64(capacity_[k]);
  for (ResourceKind k : core::kAllResources) w.f64(committed_[k]);
  w.u64(running_.size());
  for (std::uint64_t task_id : running_) w.u64(task_id);
  w.u8(draining_ ? 1 : 0);
}

Worker Worker::load_state(util::ByteReader& r) {
  const std::uint64_t id = r.u64();
  ResourceVector capacity;
  for (ResourceKind k : core::kAllResources) capacity[k] = r.f64();
  for (ResourceKind k : core::kManagedResources) {
    if (!std::isfinite(capacity[k]) || !(capacity[k] > 0.0)) {
      throw std::runtime_error(
          "Worker: snapshot capacity must be finite and > 0");
    }
  }
  Worker w(id, capacity);
  for (ResourceKind k : core::kAllResources) w.committed_[k] = r.f64();
  for (ResourceKind k : core::kManagedResources) {
    // Negated so that NaN fails too: every comparison with NaN is false.
    if (!(w.committed_[k] >= 0.0 &&
          w.committed_[k] <= capacity[k] * (1.0 + kEps))) {
      throw std::runtime_error(
          "Worker: snapshot committed must be finite and within "
          "[0, capacity]");
    }
  }
  const std::uint64_t running = r.u64();
  for (std::uint64_t i = 0; i < running; ++i) w.running_.insert(r.u64());
  w.draining_ = r.u8() != 0;
  return w;
}

}  // namespace tora::sim
