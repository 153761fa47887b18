#include "core/bucketing_policy.hpp"

#include <algorithm>

namespace tora::core {

std::size_t BucketingPolicy::RebuildSchedule::epoch_for(
    std::size_t history_size) const noexcept {
  if (!(growth > 0.0)) return 1;
  const double k = growth * static_cast<double>(history_size);
  if (!(k > 1.0)) return 1;
  const double capped = std::min(k, static_cast<double>(max_epoch));
  return static_cast<std::size_t>(capped);
}

void BucketingPolicy::observe(double peak_value, double significance) {
  check_observation("BucketingPolicy", peak_value, significance);
  store_.add(peak_value, significance);
  ++observed_since_rebuild_;
  if (observed_since_rebuild_ >= schedule_.epoch_for(store_.size())) {
    rebuild_due_ = true;
  }
}

void BucketingPolicy::rebuild_now() {
  store_.flush();
  if (store_.empty()) {
    throw std::logic_error(
        "BucketingPolicy: predict() before any record was observed; the "
        "TaskAllocator's exploratory mode must cover the cold start");
  }
  const SortedRecords sorted = store_.sorted();
  buckets_ = BucketSet::from_sorted(sorted, compute_break_indices(sorted));
  rebuild_due_ = false;
  built_ = true;
  built_size_ = store_.size();
  observed_since_rebuild_ = 0;
  ++rebuilds_;
}

const BucketSet& BucketingPolicy::buckets() {
  if (rebuild_pending()) rebuild_now();
  return buckets_;
}

const BucketSet& BucketingPolicy::fresh_buckets() {
  if (stale()) rebuild_now();
  return buckets_;
}

double BucketingPolicy::predict() {
  if (rebuild_pending()) rebuild_now();
  return buckets_.sample_allocation(rng_);
}

double BucketingPolicy::predict_floor() {
  // Buckets are contiguous ranges of the value-sorted records and a rep is
  // its range's maximum, so the first bucket's rep is the least.
  return buckets().buckets().front().rep;
}

std::vector<Record> BucketingPolicy::records() {
  store_.flush();
  const auto v = store_.values();
  const auto s = store_.significances();
  std::vector<Record> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back({v[i], s[i]});
  return out;
}

std::span<const double> BucketingPolicy::values() {
  store_.flush();
  return store_.values();
}

std::span<const double> BucketingPolicy::significances() {
  store_.flush();
  return store_.significances();
}

double BucketingPolicy::retry(double failed_alloc) {
  // A previous execution exhausted failed_alloc; consider only buckets whose
  // representative exceeds it. Retry escalation is exactly-on-demand: even
  // under an amortizing schedule, any observation not yet reflected forces a
  // merge + rebuild here, so the escalation sees the full history. With no
  // bucket left (the failed allocation was already the highest rep seen),
  // escalate by doubling (§IV-A), clamped at the configured capacity.
  if (store_.size() > 0) {
    if (stale()) rebuild_now();
    if (auto higher = buckets_.sample_above(failed_alloc, rng_)) {
      return *higher;
    }
  }
  double next = failed_alloc > 0.0 ? failed_alloc * 2.0 : 1.0;
  if (retry_capacity_ > failed_alloc && next > retry_capacity_) {
    next = retry_capacity_;
  }
  return next;
}

}  // namespace tora::core
