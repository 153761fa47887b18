#include "core/greedy_bucketing.hpp"

#include <limits>

namespace tora::core {

namespace {

struct RangeAgg {
  double sig = 0.0;
  double mean = 0.0;  // sig-weighted mean value; 0 when sig == 0
};

RangeAgg aggregate_prefix(std::span<const double> sig_prefix,
                          std::span<const double> vsig_prefix, std::size_t lo,
                          std::size_t hi_inclusive) {
  RangeAgg a;
  a.sig = sig_prefix[hi_inclusive + 1] - sig_prefix[lo];
  const double vsig = vsig_prefix[hi_inclusive + 1] - vsig_prefix[lo];
  a.mean = a.sig > 0.0 ? vsig / a.sig : 0.0;
  return a;
}

RangeAgg aggregate_scan(std::span<const double> values,
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

RangeAgg aggregate_scan(std::span<const Record> sorted, std::size_t lo,
                        std::size_t hi_inclusive) {
  RangeAgg a;
  double vsig = 0.0;
  for (std::size_t i = lo; i <= hi_inclusive; ++i) {
    a.sig += sorted[i].significance;
    vsig += sorted[i].value * sorted[i].significance;
  }
  a.mean = a.sig > 0.0 ? vsig / a.sig : 0.0;
  return a;
}

/// The 4-case expected waste of §IV-B given the two buckets' reps and
/// aggregates.
double two_bucket_cost(double rep_lo, double rep_hi, const RangeAgg& whole,
                       const RangeAgg& low, const RangeAgg& high) {
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

}  // namespace

double GreedyBucketing::faithful_cost(std::size_t lo, std::size_t brk,
                                      std::size_t hi) const {
  const RangeAgg whole =
      aggregate_scan(current_.values, current_.significances, lo, hi);
  if (brk == hi) return current_.values[hi] - whole.mean;
  return two_bucket_cost(
      current_.values[brk], current_.values[hi], whole,
      aggregate_scan(current_.values, current_.significances, lo, brk),
      aggregate_scan(current_.values, current_.significances, brk + 1, hi));
}

double GreedyBucketing::split_cost(std::span<const Record> sorted,
                                   std::size_t lo, std::size_t brk,
                                   std::size_t hi) {
  const RangeAgg whole = aggregate_scan(sorted, lo, hi);
  if (brk == hi) return sorted[hi].value - whole.mean;
  return two_bucket_cost(sorted[brk].value, sorted[hi].value, whole,
                         aggregate_scan(sorted, lo, brk),
                         aggregate_scan(sorted, brk + 1, hi));
}

std::vector<std::size_t> GreedyBucketing::compute_break_indices(
    const SortedRecords& sorted) {
  current_ = sorted;
  std::vector<std::size_t> ends;
  solve(0, sorted.size() - 1, ends);
  return ends;
}

void GreedyBucketing::solve(std::size_t lo, std::size_t hi,
                            std::vector<std::size_t>& ends) const {
  if (lo == hi) {
    ends.push_back(lo);
    return;
  }
  double min_cost = std::numeric_limits<double>::infinity();
  std::size_t best = hi;
  if (cost_model_ == CostModel::Faithful) {
    for (std::size_t i = lo; i <= hi; ++i) {
      const double c = faithful_cost(lo, i, hi);
      if (c < min_cost) {
        min_cost = c;
        best = i;
      }
    }
  } else {
    // The same arithmetic as faithful_cost, with every range sum a prefix
    // difference and the whole-range aggregate taken once per node.
    const auto values = current_.values;
    const auto sig_prefix = current_.sig_prefix;
    const auto vsig_prefix = current_.vsig_prefix;
    const RangeAgg whole = aggregate_prefix(sig_prefix, vsig_prefix, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      const double c = two_bucket_cost(
          values[i], values[hi], whole,
          aggregate_prefix(sig_prefix, vsig_prefix, lo, i),
          aggregate_prefix(sig_prefix, vsig_prefix, i + 1, hi));
      if (c < min_cost) {
        min_cost = c;
        best = i;
      }
    }
    // Not splitting is the last candidate, so an earlier equal-cost split
    // still wins the tie.
    if (values[hi] - whole.mean < min_cost) best = hi;
  }
  if (best == hi) {
    // Keeping one bucket over [lo, hi] beats every split.
    ends.push_back(hi);
    return;
  }
  solve(lo, best, ends);
  solve(best + 1, hi, ends);
}

}  // namespace tora::core
