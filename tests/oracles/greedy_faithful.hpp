// Greedy Bucketing as the paper's Algorithm 1 costs it: every candidate's
// bucket statistics come from a scan over its range, O(n) per candidate
// and O(n^2) per recursion node. It is the reference the library's
// prefix-sum split search must agree with (the same break points), and
// bench/table1_overhead times it as Table I's faithful GB row.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/bucketing_policy.hpp"
#include "core/record.hpp"
#include "core/record_store.hpp"
#include "util/rng.hpp"

namespace tora::oracles {

struct RangeAgg {
  double sig = 0.0;
  double mean = 0.0;  // sig-weighted mean value; 0 when sig == 0
};

inline RangeAgg aggregate_scan(std::span<const double> values,
                               std::span<const double> sigs, std::size_t lo,
                               std::size_t hi_inclusive) {
  RangeAgg a;
  double vsig = 0.0;
  for (std::size_t i = lo; i <= hi_inclusive; ++i) {
    a.sig += sigs[i];
    vsig += values[i] * sigs[i];
  }
  a.mean = a.sig > 0.0 ? vsig / a.sig : 0.0;
  return a;
}

/// The 4-case expected waste of §IV-B given the two buckets' reps and
/// aggregates.
inline double two_bucket_cost(double rep_lo, double rep_hi,
                              const RangeAgg& whole, const RangeAgg& low,
                              const RangeAgg& high) {
  const double p_lo = whole.sig > 0.0 ? low.sig / whole.sig : 0.0;
  const double p_hi = 1.0 - p_lo;
  const double v_lo = low.mean;
  const double v_hi = high.mean;
  const double w_lo_lo = p_lo * p_lo * (rep_lo - v_lo);
  const double w_lo_hi = p_lo * p_hi * (rep_hi - v_lo);
  const double w_hi_lo = p_hi * p_lo * (rep_lo + rep_hi - v_hi);
  const double w_hi_hi = p_hi * p_hi * (rep_hi - v_hi);
  return w_lo_lo + w_lo_hi + w_hi_lo + w_hi_hi;
}

/// The cost of splitting sorted values[lo..hi] after `brk` (two buckets
/// [lo..brk], [brk+1..hi]); `brk == hi` evaluates the unsplit
/// single-bucket configuration.
inline double split_cost(std::span<const double> values,
                         std::span<const double> sigs, std::size_t lo,
                         std::size_t brk, std::size_t hi) {
  const RangeAgg whole = aggregate_scan(values, sigs, lo, hi);
  if (brk == hi) return values[hi] - whole.mean;
  return two_bucket_cost(values[brk], values[hi], whole,
                         aggregate_scan(values, sigs, lo, brk),
                         aggregate_scan(values, sigs, brk + 1, hi));
}

/// split_cost over value-sorted records.
inline double split_cost(std::span<const core::Record> sorted, std::size_t lo,
                         std::size_t brk, std::size_t hi) {
  std::vector<double> values;
  std::vector<double> sigs;
  for (const core::Record& r : sorted) {
    values.push_back(r.value);
    sigs.push_back(r.significance);
  }
  return split_cost(values, sigs, lo, brk, hi);
}

/// Algorithm 1's recursion: every break point of [lo..hi] (hi itself
/// meaning "do not split") costed by split_cost, the first minimum in
/// index order kept, and both halves solved when a split wins.
inline void faithful_solve(const core::SortedRecords& s, std::size_t lo,
                           std::size_t hi, std::vector<std::size_t>& ends) {
  if (lo == hi) {
    ends.push_back(lo);
    return;
  }
  double min_cost = std::numeric_limits<double>::infinity();
  std::size_t best = hi;
  for (std::size_t i = lo; i <= hi; ++i) {
    const double c = split_cost(s.values, s.significances, lo, i, hi);
    if (c < min_cost) {
      min_cost = c;
      best = i;
    }
  }
  if (best == hi) {
    ends.push_back(hi);
    return;
  }
  faithful_solve(s, lo, best, ends);
  faithful_solve(s, best + 1, hi, ends);
}

/// A bucketing policy whose break points come from faithful_solve: Greedy
/// Bucketing at the paper's per-candidate cost, sharing everything else
/// (record store, bucket sampling, retries) with the library's policies.
class FaithfulGreedy final : public core::BucketingPolicy {
 public:
  explicit FaithfulGreedy(util::Rng rng) : BucketingPolicy(rng) {}

  std::string name() const override { return "greedy_bucketing"; }

 protected:
  std::vector<std::size_t> compute_break_indices(
      const core::SortedRecords& sorted) override {
    std::vector<std::size_t> ends;
    faithful_solve(sorted, 0, sorted.size() - 1, ends);
    return ends;
  }
};

}  // namespace tora::oracles
