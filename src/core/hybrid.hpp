#pragma once

#include <cstddef>

#include "core/policy.hpp"
#include "core/snapshot_fields.hpp"

namespace tora::core {

/// Two-stage policy: delegate to `initial` until `switch_after` records have
/// been observed, then to `steady`.
///
/// This implements the mitigation the paper sketches for the TopEFT cores
/// column (§V-C): "running Quantized Bucketing initially then switching
/// over" — the quantile split absorbs early outliers cheaply, after which
/// the expected-waste-driven bucketing algorithm takes over with a stable
/// record base. Both stages observe every record, so the steady policy's
/// state is complete at the moment of the hand-off.
class HybridPolicy final : public ResourcePolicy {
 public:
  /// Both policies must be non-null; `switch_after` >= 1.
  HybridPolicy(ResourcePolicyPtr initial, ResourcePolicyPtr steady,
               std::size_t switch_after);

  void observe(double peak_value, double significance) override;
  double predict() override;
  double retry(double failed_alloc) override;
  double predict_floor() override { return active().predict_floor(); }

  std::string name() const override;
  std::size_t record_count() const override { return observed_; }

  void flush_observations() override {
    initial_->flush_observations();
    steady_->flush_observations();
  }

  /// Both stages' sampler states, length-prefixed (crash recovery).
  std::string sampler_state() const override {
    return snapshot::to_bytes(*this);
  }
  void restore_sampler_state(std::string_view state) override {
    snapshot::from_bytes(state, *this);
  }

  static constexpr auto fields() {
    using H = HybridPolicy;
    return snapshot::section(
        "HybridPolicy",
        snapshot::via(
            "initial", [](const H& h) { return h.initial_->sampler_state(); },
            [](H& h, const std::string& s) {
              h.initial_->restore_sampler_state(s);
            }),
        snapshot::via(
            "steady", [](const H& h) { return h.steady_->sampler_state(); },
            [](H& h, const std::string& s) {
              h.steady_->restore_sampler_state(s);
            }));
  }

  bool switched() const noexcept { return observed_ >= switch_after_; }
  std::size_t switch_after() const noexcept { return switch_after_; }
  ResourcePolicy& initial() noexcept { return *initial_; }
  ResourcePolicy& steady() noexcept { return *steady_; }

 private:
  ResourcePolicy& active() noexcept {
    return switched() ? *steady_ : *initial_;
  }

  ResourcePolicyPtr initial_;
  ResourcePolicyPtr steady_;
  std::size_t switch_after_;
  std::size_t observed_ = 0;
};

}  // namespace tora::core
