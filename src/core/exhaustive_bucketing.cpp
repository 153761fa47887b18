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

std::vector<std::size_t> ExhaustiveBucketing::even_spacing_ends(
    std::span<const double> values, std::size_t num_buckets) {
  const std::size_t n = values.size();
  const double v_max = values.back();
  std::vector<std::size_t> ends;
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
  return ends;
}

std::vector<std::size_t> ExhaustiveBucketing::even_spacing_ends(
    std::span<const Record> sorted, std::size_t num_buckets) {
  std::vector<double> values;
  values.reserve(sorted.size());
  for (const Record& r : sorted) values.push_back(r.value);
  return even_spacing_ends(std::span<const double>(values), num_buckets);
}

std::vector<std::size_t> ExhaustiveBucketing::compute_break_indices(
    const SortedRecords& sorted) {
  const std::size_t n = sorted.size();
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_ends{n - 1};
  const std::size_t limit = std::min(max_buckets_, n);
  for (std::size_t b = 1; b <= limit; ++b) {
    auto ends = even_spacing_ends(sorted.values, b);
    const double cost = expected_waste(BucketSet::from_sorted(sorted, ends));
    if (cost < best_cost) {
      best_cost = cost;
      best_ends = std::move(ends);
    }
  }
  return best_ends;
}

}  // namespace tora::core
