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

ScanMin TovarPolicy::best_candidate(TovarObjective objective,
                                    std::span<const double> values,
                                    std::span<const double> value_prefix,
                                    std::vector<double>& bounds) {
  const std::size_t n = values.size();
  const double count = static_cast<double>(n);
  const double v_max = values[n - 1];
  // Only Min Waste reads the prefix; Max Throughput may pass an empty one.
  const double total =
      objective == TovarObjective::MinWaste ? value_prefix[n] : 0.0;
  // Candidate first allocations are the observed peak values; each one's
  // objective is O(1) from the prefix sums. `i` is the last index covered
  // by candidate a = values[i].
  const auto eval = [&](std::size_t i0, std::size_t i1) {
    ScanMin m;
    for (std::size_t i = i0; i <= i1; ++i) {
      if (i + 1 < n && values[i + 1] == values[i]) continue;  // dedupe
      const double a = values[i];
      const double covered = static_cast<double>(i + 1);
      const double uncovered = static_cast<double>(n - i - 1);
      double cost = 0.0;
      if (objective == TovarObjective::MinWaste) {
        // Covered tasks waste (a - v); uncovered tasks burn a entirely and
        // retry at v_max, wasting a + (v_max - v).
        const double covered_waste = covered * a - value_prefix[i + 1];
        const double uncovered_waste =
            uncovered * (a + v_max) - (total - value_prefix[i + 1]);
        cost = covered_waste + uncovered_waste;
      } else {
        // Expected completions per unit of committed resource: a covered
        // task commits a; an uncovered one commits a + v_max across both
        // attempts. Negated, so the best is the least.
        if (a <= 0.0) continue;
        const double p_cover = covered / count;
        cost = -(p_cover / a + (1.0 - p_cover) / (a + v_max));
      }
      if (cost < m.cost) {
        m.cost = cost;
        m.index = i;
      }
    }
    return m;
  };
  return bounded_argmin(
      n, bounds,
      [&](std::size_t i0, std::size_t i1) {
        return block_bound(objective, values, value_prefix, i0, i1);
      },
      eval);
}

double TovarPolicy::block_bound(TovarObjective objective,
                                std::span<const double> values,
                                std::span<const double> value_prefix,
                                std::size_t i0, std::size_t i1) {
  const std::size_t n = values.size();
  const double count = static_cast<double>(n);
  const double v_max = values[n - 1];
  const double a = values[i0];
  if (objective == TovarObjective::MinWaste) {
    // With its prefix terms cancelled the score is n·a + (n-1-i)·v_max -
    // total, least at a = values[i0] and i = i1. The margin covers the
    // rounding of a score and of this bound (docs/algorithms.md).
    const double total = value_prefix[n];
    const double margin =
        32.0 * kUnitRoundoff * (count * v_max + total) + 8.0 * kDenormMin;
    return count * a + static_cast<double>(n - 1 - i1) * v_max - total -
           margin;
  }
  // Each rounded operation of the score is monotone in p_cover and a, so
  // the greatest score over the block is at most this one, exactly: no
  // margin. Without a positive a there is no bound.
  if (!(a > 0.0)) return -std::numeric_limits<double>::infinity();
  const double p0 = static_cast<double>(i0 + 1) / count;
  const double p1 = static_cast<double>(i1 + 1) / count;
  return -(p1 / a + (1.0 - p0) / (a + v_max));
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
  const double v_max = values.back();
  // Every record weighs 1, so vsig_prefix is the plain value prefix sum.
  // Only Min Waste reads it: Max Throughput never extends the sums.
  const std::span<const double> prefix =
      objective_ == TovarObjective::MinWaste ? store_.sorted().vsig_prefix
                                             : std::span<const double>{};
  const ScanMin best =
      best_candidate(objective_, values, prefix, block_bounds_);
  double best_a = best.index == ScanMin::kNone ? v_max : values[best.index];
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
