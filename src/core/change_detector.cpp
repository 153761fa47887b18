#include "core/change_detector.hpp"

#include <cmath>
#include <stdexcept>

namespace tora::core {

MeanShiftDetector::MeanShiftDetector(std::size_t window,
                                     double ratio_threshold)
    : window_(window), ratio_(ratio_threshold) {
  if (window_ < 2) {
    throw std::invalid_argument("MeanShiftDetector: window must be >= 2");
  }
  if (!(ratio_threshold > 1.0)) {
    throw std::invalid_argument(
        "MeanShiftDetector: ratio_threshold must be > 1");
  }
}

bool MeanShiftDetector::add(double x) {
  ++samples_;
  recent_.push_back(x);
  recent_sum_ += x;
  if (recent_.size() > window_) {
    const double oldest = recent_.front();
    recent_.pop_front();
    recent_sum_ -= oldest;
    history_sum_ += oldest;
    ++history_count_;
  }
  if (history_count_ < window_ || recent_.size() < window_) return false;

  const double recent_mean = recent_sum_ / static_cast<double>(recent_.size());
  const double history_mean =
      history_sum_ / static_cast<double>(history_count_);
  // Guard the all-zero stream; identical means are never a shift.
  if (history_mean <= 0.0 && recent_mean <= 0.0) return false;
  const double hi = std::max(recent_mean, history_mean);
  const double lo = std::min(recent_mean, history_mean);
  if (lo <= 0.0 || hi / lo > ratio_) {
    ++changes_;
    last_recent_mean_ = recent_mean;
    last_history_mean_ = history_mean;
    // Full restart: both the history and the (transition-straddling) recent
    // window are dropped, so the detector re-arms only once the new phase
    // has produced 2×window clean samples — one detection per shift.
    history_sum_ = 0.0;
    history_count_ = 0;
    recent_.clear();
    recent_sum_ = 0.0;
    return true;
  }
  return false;
}

ChangeAwarePolicy::ChangeAwarePolicy(
    std::function<ResourcePolicyPtr()> make_inner, MeanShiftDetector detector)
    : make_inner_(std::move(make_inner)), detector_(detector) {
  if (!make_inner_) {
    throw std::invalid_argument("ChangeAwarePolicy: null inner factory");
  }
  inner_ = rebuild_inner();
}

ChangeAwarePolicy::ChangeAwarePolicy(
    std::function<ResourcePolicyPtr(util::Rng)> make_inner, util::Rng inner_rng,
    MeanShiftDetector detector)
    : inner_rng_(inner_rng),
      make_inner_seeded_(std::move(make_inner)),
      detector_(detector) {
  if (!make_inner_seeded_) {
    throw std::invalid_argument("ChangeAwarePolicy: null inner factory");
  }
  inner_ = rebuild_inner();
}

ResourcePolicyPtr ChangeAwarePolicy::rebuild_inner() {
  ResourcePolicyPtr fresh =
      inner_rng_ ? make_inner_seeded_(inner_rng_->split()) : make_inner_();
  if (!fresh) {
    throw std::invalid_argument("ChangeAwarePolicy: factory returned null");
  }
  return fresh;
}

void ChangeAwarePolicy::observe(double peak_value, double significance) {
  check_observation("ChangeAwarePolicy", peak_value, significance);
  ++total_observed_;
  since_change_.push_back({peak_value, significance});
  if (detector_.add(peak_value)) {
    // Hard reset: rebuild the inner policy from the detection window,
    // keeping only records on the NEW side of the shift (closer to the
    // recent mean than to the pre-shift history mean).
    const std::size_t keep = detector_.window();
    const std::size_t start =
        since_change_.size() > keep ? since_change_.size() - keep : 0;
    const double new_mean = detector_.last_recent_mean();
    const double old_mean = detector_.last_history_mean();
    std::vector<Record> fresh;
    for (std::size_t i = start; i < since_change_.size(); ++i) {
      const Record& r = since_change_[i];
      if (std::abs(r.value - new_mean) <= std::abs(r.value - old_mean)) {
        fresh.push_back(r);
      }
    }
    if (fresh.empty()) fresh.push_back(since_change_.back());
    inner_ = rebuild_inner();
    for (const Record& r : fresh) inner_->observe(r.value, r.significance);
    // Merge the replayed records immediately: the reset is a bulk load, so
    // deferring the staged-run merge would only delay it to the next
    // predict while keeping the staging buffer alive.
    inner_->flush_observations();
    since_change_ = std::move(fresh);
    return;
  }
  inner_->observe(peak_value, significance);
}

std::string ChangeAwarePolicy::name() const {
  return "change_aware(" + inner_->name() + ")";
}

}  // namespace tora::core
