#pragma once

#include <span>
#include <vector>

#include "core/bucketing_policy.hpp"

namespace tora::core {

/// Greedy Bucketing (paper Algorithm 1).
///
/// Recursively asks: should the sorted record range be split into exactly
/// two buckets, and if so where? For every candidate break point it
/// evaluates the 4-case expected waste of the resulting two-bucket
/// configuration (task-in-low/high × chosen-low/high, §IV-B) and keeps the
/// break minimizing it; choosing the range end means "do not split". When a
/// split wins, it recurses into both halves, so each call finds the local
/// optimum of its subrange.
///
/// Complexity: the paper's formulation recomputes each candidate's bucket
/// statistics by scanning the range, giving O(n²) per recursion node and the
/// strongly superlinear per-allocation cost Table I reports for GB
/// (`CostModel::Faithful`). This implementation defaults to prefix sums over
/// significance and value·significance (`CostModel::PrefixSum`), which makes
/// every candidate O(1) and a rebuild O(n · buckets) — identical break
/// points, orders of magnitude cheaper. The prefix sums arrive precomputed
/// in the SortedRecords view (maintained incrementally by the RecordStore),
/// so a rebuild no longer re-scans the history to build them. The Table I
/// benchmark measures both cost models.
class GreedyBucketing final : public BucketingPolicy {
 public:
  enum class CostModel {
    PrefixSum,  ///< O(1) per candidate via prefix sums (default)
    Faithful,   ///< O(n) per candidate, as in the paper's Algorithm 1 costs
  };

  explicit GreedyBucketing(util::Rng rng,
                           CostModel cost_model = CostModel::PrefixSum)
      : BucketingPolicy(rng), cost_model_(cost_model) {}

  CostModel cost_model() const noexcept { return cost_model_; }

  std::string name() const override { return "greedy_bucketing"; }

  /// The 4-case expected waste of splitting sorted[lo..hi] after index
  /// `brk` (two buckets [lo..brk], [brk+1..hi]); `brk == hi` evaluates the
  /// unsplit single-bucket configuration. Exposed for unit tests.
  static double split_cost(std::span<const Record> sorted, std::size_t lo,
                           std::size_t brk, std::size_t hi);

 protected:
  std::vector<std::size_t> compute_break_indices(
      const SortedRecords& sorted) override;

 private:
  void solve(std::size_t lo, std::size_t hi,
             std::vector<std::size_t>& ends) const;
  /// split_cost over current_, one range scan per aggregate.
  double faithful_cost(std::size_t lo, std::size_t brk, std::size_t hi) const;

  CostModel cost_model_;
  // The SortedRecords view of the compute call in progress (values, sigs,
  // and the store-maintained prefix sums the PrefixSum model reads).
  SortedRecords current_;
};

}  // namespace tora::core
