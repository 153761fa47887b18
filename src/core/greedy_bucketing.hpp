#pragma once

#include <vector>

#include "core/bounded_argmin.hpp"
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
/// statistics by scanning the range, O(n²) per recursion node (the
/// superlinear GB column of Table I; tests/oracles/greedy_faithful.hpp keeps
/// it as the test and benchmark reference). Here every candidate's cost is
/// O(1) from the prefix sums over significance and value·significance that
/// the RecordStore maintains, and each node's split search is a
/// bounded_argmin: candidates sit in 16-wide blocks, each block gets an
/// O(1) lower bound from the prefix sums at its two ends, and only the
/// blocks whose bound does not rule them out are costed, two splits at a
/// time in a branch-free two-lane kernel. The chosen split, its cost and
/// every bucket are bit-identical to costing every split and taking the
/// first minimum in index order (docs/algorithms.md has the proof).
class GreedyBucketing final : public BucketingPolicy {
 public:
  explicit GreedyBucketing(util::Rng rng) : BucketingPolicy(rng) {}

  std::string name() const override { return "greedy_bucketing"; }

  /// Resizes `cost` to hi - lo and sets cost[i - lo] to the cost of
  /// splitting [lo..hi] after i, for every i in [lo, hi), from the view's
  /// prefix sums: the kernel the split search costs its blocks with. Two
  /// candidates share each step of a two-lane vector kernel (the three
  /// divisions per candidate bound the scan), and every lane repeats the
  /// scalar arithmetic in its order, so each cost is bit-identical to a
  /// one-candidate-at-a-time scan. Exposed for the differential test.
  static void prefix_split_costs(const SortedRecords& sorted, std::size_t lo,
                                 std::size_t hi, std::vector<double>& cost);

  /// The split search of one recursion node [lo..hi] (lo < hi): the least
  /// split cost over the break points i in [lo, hi) and the first i that
  /// has it, or ScanMin{} when no cost is below +inf. Equal, bit for bit,
  /// to costing every split with prefix_split_costs and scanning with
  /// strict `<`. The records must be ones observe() accepts (finite,
  /// non-negative values and significances, sorted by value) with prefix
  /// sums from extend_prefix_sums: the block bounds' rounding margins are
  /// proven for exactly that recurrence. Exposed for the differential test.
  ScanMin best_split(const SortedRecords& sorted, std::size_t lo,
                     std::size_t hi);

  /// The split search's bound for the block of break points [i0, i1] of
  /// node [lo..hi]: at most the cost of every split in it, already widened
  /// by the block's rounding margin; NaN or infinite when there is none.
  /// Exposed for tests.
  static double split_block_bound(const SortedRecords& sorted, std::size_t lo,
                                  std::size_t hi, std::size_t i0,
                                  std::size_t i1);

 protected:
  std::vector<std::size_t> compute_break_indices(
      const SortedRecords& sorted) override;

 private:
  void solve(const SortedRecords& sorted, std::size_t lo, std::size_t hi,
             std::vector<std::size_t>& ends);

  // Block bounds of the split search in progress, reused across nodes.
  std::vector<double> block_bounds_;
};

}  // namespace tora::core
