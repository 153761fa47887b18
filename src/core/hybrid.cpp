#include "core/hybrid.hpp"

#include <stdexcept>

namespace tora::core {

HybridPolicy::HybridPolicy(ResourcePolicyPtr initial, ResourcePolicyPtr steady,
                           std::size_t switch_after)
    : initial_(std::move(initial)),
      steady_(std::move(steady)),
      switch_after_(switch_after) {
  if (!initial_ || !steady_) {
    throw std::invalid_argument("HybridPolicy: null stage policy");
  }
  if (switch_after_ == 0) {
    throw std::invalid_argument("HybridPolicy: switch_after must be >= 1");
  }
}

void HybridPolicy::observe(double peak_value, double significance) {
  // Both stages track the full history so the steady stage starts warm.
  initial_->observe(peak_value, significance);
  steady_->observe(peak_value, significance);
  ++observed_;
}

double HybridPolicy::predict() { return active().predict(); }

double HybridPolicy::retry(double failed_alloc) {
  return active().retry(failed_alloc);
}

std::string HybridPolicy::name() const {
  return "hybrid(" + initial_->name() + "->" + steady_->name() + ")";
}

}  // namespace tora::core
