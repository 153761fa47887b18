#include "core/resilience/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"

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

void RuntimeHistogram::save(util::ByteWriter& w) const {
  w.u64(per_category_.size());
  for (const RecordStore& store : per_category_) store.save(w);
}

void RuntimeHistogram::load(util::ByteReader& r) {
  // A saved store is at least its two u64 counts.
  constexpr std::size_t kMinStoreBytes = 16;
  const std::uint64_t categories = r.u64();
  if (categories > r.remaining() / kMinStoreBytes) {
    throw std::runtime_error(
        "RuntimeHistogram: snapshot category count exceeds the payload");
  }
  std::vector<RecordStore> stores(categories);
  for (RecordStore& store : stores) store.load(r);
  per_category_ = std::move(stores);
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

void ReliabilityTracker::save(util::ByteWriter& w) const {
  w.u64(entries_.size());
  for (const auto& [worker, e] : entries_) {
    w.u64(worker);
    w.f64(e.score);
    w.f64(e.release_at);
    w.u64(e.convictions);
    w.u8(e.convicted ? 1 : 0);
  }
}

void ReliabilityTracker::load(util::ByteReader& r) {
  entries_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t worker = r.u64();
    Entry e;
    e.score = r.f64();
    e.release_at = r.f64();
    e.convictions = r.u64();
    e.convicted = r.u8() != 0;
    entries_.emplace(worker, e);
  }
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

void StormDetector::save(util::ByteWriter& w) const {
  w.u64(window_.size());
  for (double t : window_) w.f64(t);
  w.u8(degraded_ ? 1 : 0);
  w.u64(entered_);
  w.u64(exited_);
}

void StormDetector::load(util::ByteReader& r) {
  window_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) window_.push_back(r.f64());
  degraded_ = r.u8() != 0;
  entered_ = r.u64();
  exited_ = r.u64();
}

}  // namespace tora::core::resilience
