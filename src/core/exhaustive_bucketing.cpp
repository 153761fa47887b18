#include "core/exhaustive_bucketing.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tora::core {

ExhaustiveBucketing::ExhaustiveBucketing(util::Rng rng,
                                         std::size_t max_buckets)
    : BucketingPolicy(rng), max_buckets_(max_buckets) {
  if (max_buckets_ == 0) {
    throw std::invalid_argument("ExhaustiveBucketing: max_buckets must be >= 1");
  }
}

void ExhaustiveBucketing::even_spacing_ends(std::span<const double> values,
                                            std::size_t num_buckets,
                                            std::vector<std::size_t>& ends) {
  const std::size_t n = values.size();
  const double v_max = values.back();
  ends.clear();
  for (std::size_t i = 1; i < num_buckets; ++i) {
    const double cut =
        v_max * static_cast<double>(i) / static_cast<double>(num_buckets);
    // "Map its value to the closest record that has a lower value than it":
    // the last index whose value is strictly below the cut. Candidates below
    // the smallest record map to nothing and are dropped.
    const auto it = std::lower_bound(values.begin(), values.end(), cut);
    if (it == values.begin()) continue;
    ends.push_back(static_cast<std::size_t>(it - values.begin()) - 1);
  }
  ends.push_back(n - 1);
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
}

std::vector<std::size_t> ExhaustiveBucketing::even_spacing_ends(
    std::span<const Record> sorted, std::size_t num_buckets) {
  std::vector<double> values;
  values.reserve(sorted.size());
  for (const Record& r : sorted) values.push_back(r.value);
  std::vector<std::size_t> ends;
  even_spacing_ends(values, num_buckets, ends);
  return ends;
}

std::vector<std::size_t> ExhaustiveBucketing::compute_break_indices(
    const SortedRecords& sorted) {
  const std::size_t n = sorted.size();
  double best_cost = std::numeric_limits<double>::infinity();
  best_ends_.assign(1, n - 1);
  const std::size_t limit = std::min(max_buckets_, n);
  for (std::size_t b = 1; b <= limit; ++b) {
    // Score the candidate in the policy's scratch buffers; only the winner's
    // BucketSet is built, once, by the caller.
    even_spacing_ends(sorted.values, b, candidate_ends_);
    fill_buckets(sorted, candidate_ends_, candidate_buckets_);
    const double cost = expected_waste(candidate_buckets_, waste_scratch_);
    if (cost < best_cost) {
      best_cost = cost;
      best_ends_.assign(candidate_ends_.begin(), candidate_ends_.end());
    }
  }
  return best_ends_;
}

}  // namespace tora::core
