#include "core/whole_machine.hpp"

#include <stdexcept>

namespace tora::core {

WholeMachinePolicy::WholeMachinePolicy(double capacity) : capacity_(capacity) {
  if (!(capacity > 0.0)) {
    throw std::invalid_argument("WholeMachinePolicy: capacity must be > 0");
  }
}

void WholeMachinePolicy::observe(double peak_value, double significance) {
  check_observation("WholeMachinePolicy", peak_value, significance);
  ++count_;
}

double WholeMachinePolicy::retry(double failed_alloc) {
  // A task exceeded a whole machine: keep the growth contract so the retry
  // chain terminates; the allocator/simulator will clamp or reject.
  return failed_alloc >= capacity_ ? failed_alloc * 2.0 : capacity_;
}

}  // namespace tora::core
