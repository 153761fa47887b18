// Differential test for TovarPolicy on the shared RecordStore.
//
// ReferenceTovar keeps the policy's earlier private history: a sorted
// vector grown by upper_bound insertion, and a fresh value prefix array
// built on every rebuild. The production policy stages records in a
// RecordStore and reads the store's maintained prefix sums instead. Both
// objectives must return bitwise-identical allocations for arbitrary
// interleavings of observe / predict / retry, duplicates and zeros included.

#include "core/tovar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace {

using tora::core::TovarObjective;
using tora::core::TovarPolicy;
using tora::util::Rng;

class ReferenceTovar {
 public:
  explicit ReferenceTovar(TovarObjective objective) : objective_(objective) {}

  void observe(double v) {
    values_.insert(std::upper_bound(values_.begin(), values_.end(), v), v);
    dirty_ = true;
  }

  double predict() {
    if (dirty_) rebuild();
    return choice_;
  }

  double retry(double failed_alloc) const {
    const double vmax = values_.empty() ? 0.0 : values_.back();
    if (vmax > failed_alloc) return vmax;
    return failed_alloc > 0.0 ? failed_alloc * 2.0 : 1.0;
  }

  std::size_t size() const { return values_.size(); }

 private:
  void rebuild() {
    if (values_.empty()) throw std::logic_error("no records");
    const std::size_t n = values_.size();
    const double v_max = values_.back();
    std::vector<double> value_prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      value_prefix[i + 1] = value_prefix[i] + values_[i];
    }
    const double total = value_prefix[n];
    double best_score = std::numeric_limits<double>::infinity();
    if (objective_ == TovarObjective::MaxThroughput) best_score = -best_score;
    double best_a = v_max;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 1 < n && values_[i + 1] == values_[i]) continue;
      const double a = values_[i];
      const double covered = static_cast<double>(i + 1);
      const double uncovered = static_cast<double>(n - i - 1);
      if (objective_ == TovarObjective::MinWaste) {
        const double covered_waste = covered * a - value_prefix[i + 1];
        const double uncovered_waste =
            uncovered * (a + v_max) - (total - value_prefix[i + 1]);
        const double score = covered_waste + uncovered_waste;
        if (score < best_score) {
          best_score = score;
          best_a = a;
        }
      } else {
        if (a <= 0.0) continue;
        const double p_cover = covered / static_cast<double>(n);
        const double score = p_cover / a + (1.0 - p_cover) / (a + v_max);
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

  TovarObjective objective_;
  std::vector<double> values_;
  bool dirty_ = true;
  double choice_ = 0.0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void run_differential(TovarObjective objective, std::uint64_t seed) {
  TovarPolicy policy(objective);
  ReferenceTovar ref(objective);
  Rng ops(seed);
  std::vector<double> seen;
  for (int step = 0; step < 1500; ++step) {
    const double roll = ops.uniform01();
    if (seen.empty() || roll < 0.45) {
      double v = ops.uniform(0.0, 64.0);
      const double kind = ops.uniform01();
      if (!seen.empty() && kind < 0.25) {
        // Exact duplicate of an earlier value: ties must merge identically.
        v = seen[static_cast<std::size_t>(ops.uniform(
                     0.0, static_cast<double>(seen.size()))) %
                 seen.size()];
      } else if (kind < 0.3) {
        v = 0.0;
      }
      policy.observe(v, ops.uniform(0.0, 10.0));  // significance is ignored
      ref.observe(v);
      seen.push_back(v);
    } else if (roll < 0.8) {
      ASSERT_EQ(bits(policy.predict()), bits(ref.predict())) << "step " << step;
    } else if (roll < 0.97) {
      const double failed = ops.uniform(0.0, 80.0);
      ASSERT_EQ(bits(policy.retry(failed)), bits(ref.retry(failed)))
          << "step " << step;
    } else {
      policy.flush_observations();  // merging early must change nothing
    }
    ASSERT_EQ(policy.record_count(), ref.size());
  }
}

TEST(TovarReference, MinWasteMatchesSortedVectorHistory) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_differential(TovarObjective::MinWaste, seed);
  }
}

TEST(TovarReference, MaxThroughputMatchesSortedVectorHistory) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    run_differential(TovarObjective::MaxThroughput, seed);
  }
}

}  // namespace
