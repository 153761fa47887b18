#include "core/max_seen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tora::core {

MaxSeenPolicy::MaxSeenPolicy(double bucket_width) : width_(bucket_width) {
  if (!(bucket_width > 0.0)) {
    throw std::invalid_argument("MaxSeenPolicy: bucket_width must be > 0");
  }
}

void MaxSeenPolicy::observe(double peak_value, double significance) {
  check_observation("MaxSeenPolicy", peak_value, significance);
  max_ = std::max(max_, peak_value);
  ++count_;
}

double MaxSeenPolicy::predict() {
  if (count_ == 0) {
    throw std::logic_error(
        "MaxSeenPolicy: predict() before any record; exploration must cover "
        "the cold start");
  }
  if (max_ <= 0.0) return width_;  // degenerate all-zero history
  return std::ceil(max_ / width_) * width_;
}

double MaxSeenPolicy::retry(double failed_alloc) {
  // The failed task is larger than anything seen (or the rounding already
  // matched the max); escalate geometrically.
  const double rounded = count_ > 0 && max_ > 0.0
                             ? std::ceil(max_ / width_) * width_
                             : 0.0;
  if (rounded > failed_alloc) return rounded;
  return failed_alloc > 0.0 ? failed_alloc * 2.0 : width_;
}

}  // namespace tora::core
