#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tora::core {

/// True for a number a completed task may report as a resource peak or
/// carry as its significance: finite and non-negative. A NaN passes a bare
/// `< 0` check, and would then break the strict ordering the sorted record
/// history and every binary search over it assume.
inline bool valid_observation(double x) noexcept {
  return std::isfinite(x) && x >= 0.0;
}

/// The admission check at the top of every observe(): throws
/// std::invalid_argument, prefixed with `who`, unless both numbers pass
/// valid_observation. Nothing is recorded when it throws.
inline void check_observation(const char* who, double peak_value,
                              double significance) {
  if (!valid_observation(peak_value)) {
    throw std::invalid_argument(
        std::string(who) + ": resource value must be finite and non-negative");
  }
  if (!valid_observation(significance)) {
    throw std::invalid_argument(
        std::string(who) + ": significance must be finite and non-negative");
  }
}

/// Per-resource, per-category allocation policy.
///
/// One instance manages ONE resource dimension of ONE task category — the
/// paper's bucketing manager keeps "a separate state for each resource type"
/// and "a separate instance ... per category" (§IV-A, §IV-D). TaskAllocator
/// owns the (category × resource) matrix of instances and routes
/// observations and requests.
///
/// Contract:
///  * observe() is called once per successful task completion with the
///    task's peak consumption of this resource and its significance, both
///    finite and non-negative; implementations reject anything else with
///    check_observation before recording.
///  * predict() returns the first allocation for a fresh task. It may
///    rebuild internal state (the cost the paper's Table I measures).
///  * retry() returns the next allocation after an execution was killed for
///    exhausting `failed_alloc` of this resource. Implementations must
///    return a value strictly greater than `failed_alloc` so retry chains
///    terminate.
///  * A policy whose sampler_state() is empty returns the same predict()
///    until its next observe(). The TaskAllocator relies on this to predict
///    such a category once per completion instead of once per queued task.
///  * Policies never see worker capacities; the TaskAllocator clamps.
class ResourcePolicy {
 public:
  virtual ~ResourcePolicy() = default;

  virtual void observe(double peak_value, double significance) = 0;
  virtual double predict() = 0;
  virtual double retry(double failed_alloc) = 0;

  virtual std::string name() const = 0;
  virtual std::size_t record_count() const = 0;

  /// A lower bound on what predict() can return before the next observe():
  /// the dispatch pass stops probing once no queued task's bound fits the
  /// pool. Must draw no number; it may run the rebuild the next predict()
  /// would run. The default, 0, means "no floor".
  virtual double predict_floor() { return 0.0; }

  /// Folds any internally buffered observations into the policy's primary
  /// state (the bucketing family's staged-record merge). Checkpoint and
  /// recovery writers and the change detector call this before inspecting a
  /// policy so they always see fully-merged state; policies without an
  /// observation buffer do nothing. Must not consume sampler state.
  virtual void flush_observations() {}

  /// Opaque serialization of the policy's SAMPLING state — the part that is
  /// NOT a pure function of the observe() stream (the bucketing family's
  /// per-instance Rng; predict/retry draw from it, so two instances with
  /// identical records but different sampler positions diverge). Crash
  /// recovery replays the completion history to rebuild record state, then
  /// overwrites the sampler state with these bytes to make the restored
  /// policy bit-identical. Deterministic policies return empty.
  virtual std::string sampler_state() const { return {}; }

  /// Restores bytes produced by sampler_state() on a policy of the same
  /// type. Implementations should throw std::runtime_error on malformed
  /// input; the default accepts only the empty state.
  virtual void restore_sampler_state(std::string_view state) {
    if (!state.empty()) {
      throw std::runtime_error(
          "ResourcePolicy: unexpected sampler state for a deterministic "
          "policy");
    }
  }
};

using ResourcePolicyPtr = std::unique_ptr<ResourcePolicy>;

}  // namespace tora::core
