#pragma once

#include <span>
#include <vector>

#include "core/bucketing_policy.hpp"

namespace tora::core {

/// Exhaustive Bucketing (paper Algorithm 2 with the §IV-D `combinations`
/// optimization).
///
/// For every bucket count b = 1 .. max_buckets it forms ONE candidate
/// configuration by spacing break values evenly over (0, v_max] —
/// candidate i sits at v_max·i/b — snapping each candidate down to the
/// closest record strictly below it, and dropping duplicates/empties. Each
/// configuration's expected waste is evaluated with the full retry-aware
/// T[i][j] cost table (expected_waste in bucket.hpp) and the cheapest
/// configuration wins.
///
/// Complexity: O(B² log n + B⁴) per rebuild for B = max_buckets and n
/// records. Each candidate's breaks are B binary searches over the sorted
/// values, its bucket statistics (fill_buckets) take every bucket's sums as
/// differences of the store-maintained prefix sums, and its T[i][j] table
/// costs O(B³). Candidates are scored in scratch buffers kept on the
/// policy, so scoring allocates nothing once they have grown. The break
/// computation never scans the history, so its cost is nearly independent
/// of n, unlike the linear growth Table I reports for the paper's EB.
class ExhaustiveBucketing final : public BucketingPolicy {
 public:
  /// `max_buckets` bounds the configurations searched; the paper restricts
  /// it to 10 ("the number of buckets rarely exceeds 10", §V-A).
  explicit ExhaustiveBucketing(util::Rng rng, std::size_t max_buckets = 10);

  std::string name() const override { return "exhaustive_bucketing"; }
  std::size_t max_buckets() const noexcept { return max_buckets_; }

  /// The even-spacing candidate generator: bucket END indices for a
  /// `num_buckets`-way split of `sorted` (always terminated by the last
  /// index; may return fewer buckets after deduplication). Exposed for
  /// unit tests.
  static std::vector<std::size_t> even_spacing_ends(
      std::span<const Record> sorted, std::size_t num_buckets);

  /// SoA overload over the sorted value array, written into `ends` (the
  /// engine's hot path reuses one buffer).
  static void even_spacing_ends(std::span<const double> values,
                                std::size_t num_buckets,
                                std::vector<std::size_t>& ends);

 protected:
  std::vector<std::size_t> compute_break_indices(
      const SortedRecords& sorted) override;

 private:
  std::size_t max_buckets_;
  // Scratch reused by every candidate of every rebuild.
  std::vector<std::size_t> candidate_ends_;
  std::vector<std::size_t> best_ends_;
  std::vector<Bucket> candidate_buckets_;
  std::vector<double> waste_scratch_;
};

}  // namespace tora::core
