#pragma once

#include <cstddef>

#include "core/policy.hpp"
#include "core/record_store.hpp"

namespace tora::core {

/// Which first-allocation objective a TovarPolicy optimizes.
enum class TovarObjective {
  /// Minimize expected waste: argmin_a Σ_{v<=a} (a-v) + Σ_{v>a} (a + vmax - v).
  MinWaste,
  /// Maximize expected task throughput per committed resource:
  /// argmax_a P(v<=a)/a + P(v>a)/(a + vmax).
  MaxThroughput,
};

/// Min Waste / Max Throughput — the job-sizing comparison strategies of
/// Tovar et al., "A Job Sizing Strategy for High-Throughput Scientific
/// Workflows" (IEEE TPDS 29(2), 2018), as used in the paper's §V.
///
/// Both maintain the empirical distribution of observed peaks (in the same
/// RecordStore the bucketing family uses, every record at significance 1),
/// pick a first allocation among the observed values by optimizing their
/// objective in one O(n) pass over the store's value prefix sums, and
/// follow the AT-MOST-ONCE retry rule: a task that exhausts its first
/// allocation is retried directly at the maximum value seen (the paper's
/// bucketing algorithms generalize exactly this policy into a bounded chain
/// of buckets). A task above the max seen escalates by doubling.
class TovarPolicy final : public ResourcePolicy {
 public:
  explicit TovarPolicy(TovarObjective objective);

  void observe(double peak_value, double significance) override;
  double predict() override;
  double retry(double failed_alloc) override;

  std::string name() const override;
  std::size_t record_count() const override { return store_.size(); }

  void flush_observations() override { store_.flush(); }

  TovarObjective objective() const noexcept { return objective_; }
  /// Largest observed value, 0 before any record. Merges staged records.
  double max_value();

  /// The currently optimal first allocation (rebuilds if needed). Exposed
  /// for tests; equals what predict() returns.
  double current_choice();

 private:
  void rebuild_if_dirty();

  TovarObjective objective_;
  RecordStore store_;
  bool dirty_ = true;
  double choice_ = 0.0;
};

}  // namespace tora::core
