#include "core/tovar.hpp"

#include <limits>
#include <span>
#include <stdexcept>

namespace tora::core {

TovarPolicy::TovarPolicy(TovarObjective objective) : objective_(objective) {}

std::string TovarPolicy::name() const {
  return objective_ == TovarObjective::MinWaste ? "min_waste"
                                                : "max_throughput";
}

void TovarPolicy::observe(double peak_value, double significance) {
  check_observation("TovarPolicy", peak_value, significance);
  // Every record weighs 1: v * 1.0 == v, so the store's vsig_prefix is the
  // plain value prefix sum the objectives need.
  store_.add(peak_value, 1.0);
  // `>=`, not `>`: the merge keeps equal values in arrival order, so the
  // sorted run ends with the latest of them (-0.0 and 0.0 included).
  if (peak_value >= max_value_) max_value_ = peak_value;
  dirty_ = true;
}

void TovarPolicy::rebuild_if_dirty() {
  if (!dirty_) return;
  if (store_.empty()) {
    throw std::logic_error(
        "TovarPolicy: predict() before any record; exploration must cover "
        "the cold start");
  }
  store_.flush();
  const std::span<const double> values = store_.values();
  // value_prefix[i] = sum of values [0, i).
  const std::span<const double> value_prefix = store_.sorted().vsig_prefix;
  const std::size_t n = values.size();
  const double v_max = values.back();
  const double total = value_prefix[n];

  double best_score = std::numeric_limits<double>::infinity();
  if (objective_ == TovarObjective::MaxThroughput) best_score = -best_score;
  double best_a = v_max;

  // Candidate first allocations are the observed peak values; for each,
  // evaluate the objective in O(1) using the prefix sums. `i` is the last
  // index covered by candidate a = values[i].
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && values[i + 1] == values[i]) continue;  // dedupe
    const double a = values[i];
    const double covered = static_cast<double>(i + 1);
    const double uncovered = static_cast<double>(n - i - 1);
    if (objective_ == TovarObjective::MinWaste) {
      // Covered tasks waste (a - v); uncovered tasks burn a entirely and
      // retry at v_max, wasting a + (v_max - v).
      const double covered_waste = covered * a - value_prefix[i + 1];
      const double uncovered_waste =
          uncovered * (a + v_max) - (total - value_prefix[i + 1]);
      const double score = covered_waste + uncovered_waste;
      if (score < best_score) {
        best_score = score;
        best_a = a;
      }
    } else {
      // Expected completions per unit of committed resource: a covered task
      // commits a; an uncovered one commits a + v_max across both attempts.
      if (a <= 0.0) continue;
      const double p_cover = covered / static_cast<double>(n);
      const double score =
          p_cover / a + (1.0 - p_cover) / (a + v_max);
      if (score > best_score) {
        best_score = score;
        best_a = a;
      }
    }
  }
  if (best_a <= 0.0) best_a = v_max > 0.0 ? v_max : 1.0;
  choice_ = best_a;
  dirty_ = false;
}

double TovarPolicy::current_choice() {
  rebuild_if_dirty();
  return choice_;
}

double TovarPolicy::predict() { return current_choice(); }

double TovarPolicy::retry(double failed_alloc) {
  // At-most-once retry: jump straight to the max seen; beyond that, double.
  const double vmax = max_value();
  if (vmax > failed_alloc) return vmax;
  return failed_alloc > 0.0 ? failed_alloc * 2.0 : 1.0;
}

}  // namespace tora::core
