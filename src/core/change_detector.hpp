#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/policy.hpp"
#include "core/record.hpp"
#include "util/rng.hpp"

namespace tora::core {

/// Windowed mean-shift detector over a scalar stream.
///
/// The paper handles moving distributions with soft recency (significance)
/// weighting; this extension (§VII future work: "exploring other
/// approaches") detects hard phase changes instead: when the mean of the
/// most recent `window` samples differs from the mean of the older history
/// by more than `ratio_threshold`× (in either direction), a change is
/// signalled and the history resets to the recent window. Deterministic and
/// O(1) per sample.
class MeanShiftDetector {
 public:
  /// `window` >= 2 samples; `ratio_threshold` > 1.
  explicit MeanShiftDetector(std::size_t window = 20,
                             double ratio_threshold = 2.0);

  /// Feeds one sample; returns true when a mean shift was detected (the
  /// detector then restarts its history from the current window).
  bool add(double x);

  std::size_t changes_detected() const noexcept { return changes_; }
  std::size_t samples_seen() const noexcept { return samples_; }
  std::size_t window() const noexcept { return window_; }

  /// The two means compared at the most recent detection (valid only after
  /// add() returned true at least once). Consumers use them to decide which
  /// side of the shift a record belongs to.
  double last_recent_mean() const noexcept { return last_recent_mean_; }
  double last_history_mean() const noexcept { return last_history_mean_; }

 private:
  std::size_t window_;
  double ratio_;
  std::deque<double> recent_;
  double recent_sum_ = 0.0;
  double history_sum_ = 0.0;
  std::size_t history_count_ = 0;
  std::size_t changes_ = 0;
  std::size_t samples_ = 0;
  double last_recent_mean_ = 0.0;
  double last_history_mean_ = 0.0;
};

/// A ResourcePolicy wrapper that rebuilds its inner policy from only the
/// post-change records whenever the MeanShiftDetector fires — a hard-reset
/// alternative to the paper's soft significance weighting. The inner policy
/// is recreated via the factory; records since the change (including the
/// detection window) are replayed into it so no information inside the new
/// phase is lost.
class ChangeAwarePolicy final : public ResourcePolicy {
 public:
  /// `make_inner` produces a fresh inner policy (must be non-null and never
  /// return null). `detector` is copied as the initial state.
  ChangeAwarePolicy(std::function<ResourcePolicyPtr()> make_inner,
                    MeanShiftDetector detector);

  /// Rng-owning variant: the policy owns the stream that seeds each inner
  /// rebuild (one split per reset), so crash-recovery snapshots can capture
  /// and restore it — the closure-captured stream of the nullary overload
  /// is invisible to sampler_state(). The registry uses this form.
  ChangeAwarePolicy(std::function<ResourcePolicyPtr(util::Rng)> make_inner,
                    util::Rng inner_rng, MeanShiftDetector detector);

  void observe(double peak_value, double significance) override;
  double predict() override { return inner_->predict(); }
  double retry(double failed_alloc) override {
    return inner_->retry(failed_alloc);
  }
  double predict_floor() override { return inner_->predict_floor(); }

  std::string name() const override;
  std::size_t record_count() const override { return total_observed_; }

  void flush_observations() override { inner_->flush_observations(); }

  /// The owned rebuild stream (when constructed with one) plus the current
  /// inner policy's sampler state (crash recovery).
  std::string sampler_state() const override {
    return snapshot::to_bytes(*this);
  }
  void restore_sampler_state(std::string_view state) override {
    snapshot::from_bytes(state, *this);
  }

  /// The sampler state's field list: the owned stream's presence must
  /// match this instance's construction.
  static constexpr auto fields() {
    using C = ChangeAwarePolicy;
    return snapshot::section(
        "ChangeAwarePolicy", snapshot::field("rng", &C::inner_rng_),
        snapshot::via(
            "inner", [](const C& c) { return c.inner_->sampler_state(); },
            [](C& c, const std::string& state) {
              c.inner_->restore_sampler_state(state);
            }));
  }

  std::size_t resets() const noexcept { return detector_.changes_detected(); }
  ResourcePolicy& inner() noexcept { return *inner_; }

 private:
  ResourcePolicyPtr rebuild_inner();

  std::function<ResourcePolicyPtr()> make_inner_;
  /// Set iff constructed with the Rng-owning overload; consumed one split()
  /// per inner rebuild.
  std::optional<util::Rng> inner_rng_;
  std::function<ResourcePolicyPtr(util::Rng)> make_inner_seeded_;
  MeanShiftDetector detector_;
  ResourcePolicyPtr inner_;
  /// Records observed since the last reset (replayed on the next reset).
  std::vector<Record> since_change_;
  std::size_t total_observed_ = 0;
};

}  // namespace tora::core
