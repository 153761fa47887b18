#include "core/resilience/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tora::core::resilience {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("ResilienceConfig: " + what);
}

}  // namespace

void ResilienceConfig::validate() const {
  require(deadline_quantile > 0.0 && deadline_quantile <= 1.0,
          "deadline_quantile must be in (0, 1]");
  require(deadline_slack >= 1.0, "deadline_slack must be >= 1");
  require(min_records >= 1, "min_records must be >= 1");
  require(straggler_quantile > 0.0 && straggler_quantile <= 1.0,
          "straggler_quantile must be in (0, 1]");
  require(straggler_slack >= 1.0, "straggler_slack must be >= 1");
  require(reliability_decay > 0.0 && reliability_decay <= 1.0,
          "reliability_decay must be in (0, 1]");
  require(probation_sentence > 0.0, "probation_sentence must be > 0");
  require(sentence_growth >= 1.0, "sentence_growth must be >= 1");
  require(storm_window > 0.0, "storm_window must be > 0");
  require(storm_enter >= 1, "storm_enter must be >= 1");
  require(storm_exit < storm_enter, "storm_exit must be < storm_enter");
  require(degraded_inflight_cap >= 1, "degraded_inflight_cap must be >= 1");
  require(degraded_deadline_widen >= 1.0,
          "degraded_deadline_widen must be >= 1");
}

// ---------------------------------------------------------------------------
// RuntimeHistogram

void RuntimeHistogram::observe(CategoryId category, double wall) {
  if (category >= per_category_.size()) per_category_.resize(category + 1);
  per_category_[category].add(wall, 1.0);
}

std::size_t RuntimeHistogram::records(CategoryId category) const noexcept {
  if (category >= per_category_.size()) return 0;
  return per_category_[category].size();
}

std::optional<double> RuntimeHistogram::quantile(CategoryId category,
                                                 double q) {
  if (category >= per_category_.size()) return std::nullopt;
  RecordStore& store = per_category_[category];
  if (store.empty()) return std::nullopt;
  store.flush();
  const auto values = store.values();
  const std::size_t n = values.size();
  // Nearest-rank: the ceil(q·n)-th order statistic, clamped to [1, n].
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

// ---------------------------------------------------------------------------
// DeadlineTracker

double DeadlineTracker::deadline(CategoryId category, double fallback,
                                 double widen) {
  if (!adaptive(category)) return fallback * widen;
  const auto q = hist_.quantile(category, cfg_.deadline_quantile);
  return *q * cfg_.deadline_slack * widen;
}

std::optional<double> DeadlineTracker::straggler_threshold(
    CategoryId category) {
  if (!adaptive(category)) return std::nullopt;
  const auto q = hist_.quantile(category, cfg_.straggler_quantile);
  return *q * cfg_.straggler_slack;
}

// ---------------------------------------------------------------------------
// ReliabilityTracker

void ReliabilityTracker::on_success(std::uint64_t worker) {
  Entry& e = entries_[worker];
  e.score += cfg_.reliability_decay * (1.0 - e.score);
  e.convicted = false;  // a delivered result redeems probation
}

void ReliabilityTracker::on_offense(std::uint64_t worker) {
  Entry& e = entries_[worker];
  e.score += cfg_.reliability_decay * (0.0 - e.score);
}

double ReliabilityTracker::score(std::uint64_t worker) const noexcept {
  const auto it = entries_.find(worker);
  return it == entries_.end() ? 1.0 : it->second.score;
}

double ReliabilityTracker::quarantine(std::uint64_t worker, double now) {
  Entry& e = entries_[worker];
  double sentence = cfg_.probation_sentence;
  for (std::uint64_t c = 0; c < e.convictions; ++c) {
    sentence *= cfg_.sentence_growth;
  }
  ++e.convictions;
  e.release_at = now + sentence;
  e.convicted = true;
  return sentence;
}

bool ReliabilityTracker::quarantined(std::uint64_t worker,
                                     double now) const noexcept {
  const auto it = entries_.find(worker);
  if (it == entries_.end()) return false;
  return it->second.convicted && now < it->second.release_at;
}

bool ReliabilityTracker::probationary(std::uint64_t worker,
                                      double now) const noexcept {
  const auto it = entries_.find(worker);
  if (it == entries_.end()) return false;
  return it->second.convicted && now >= it->second.release_at;
}

std::size_t ReliabilityTracker::convictions(
    std::uint64_t worker) const noexcept {
  const auto it = entries_.find(worker);
  return it == entries_.end()
             ? 0
             : static_cast<std::size_t>(it->second.convictions);
}

// ---------------------------------------------------------------------------
// StormDetector

void StormDetector::prune(double now) {
  const double horizon = now - cfg_.storm_window;
  while (!window_.empty() && window_.front() < horizon) window_.pop_front();
}

void StormDetector::on_eviction(double now) {
  if (!cfg_.storm_control) return;
  prune(now);
  window_.push_back(now);
  if (!degraded_ && window_.size() >= cfg_.storm_enter) {
    degraded_ = true;
    ++entered_;
  }
}

void StormDetector::update(double now) {
  if (!cfg_.storm_control) return;
  prune(now);
  if (degraded_ && window_.size() <= cfg_.storm_exit) {
    degraded_ = false;
    ++exited_;
  }
}

}  // namespace tora::core::resilience
