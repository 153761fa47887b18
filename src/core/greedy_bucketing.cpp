#include "core/greedy_bucketing.hpp"

#include <cstring>
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

/// Two doubles in one 16-byte register (a GCC/Clang vector extension: SSE2
/// on baseline x86-64, no intrinsics or target flags needed). Arithmetic
/// is lane-wise IEEE, so a lane computes exactly what the scalar code does.
using Lanes = double __attribute__((vector_size(16)));

Lanes broadcast(double x) { return Lanes{x, x}; }

Lanes load_lanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
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

void GreedyBucketing::prefix_split_costs(const SortedRecords& sorted,
                                         std::size_t lo, std::size_t hi,
                                         std::vector<double>& cost) {
  // Candidates i and i + 1 share one pass through the kernel. Each lane
  // repeats two_bucket_cost's operations in its order; where the scalar
  // code picks 0.0 for a range without significance, the lane divides
  // anyway and a select discards the result (no FP traps are enabled). An
  // odd last candidate takes the scalar path.
  const std::span<const double> values = sorted.values;
  const std::span<const double> sig_prefix = sorted.sig_prefix;
  const std::span<const double> vsig_prefix = sorted.vsig_prefix;
  const RangeAgg whole = aggregate_prefix(sig_prefix, vsig_prefix, lo, hi);
  cost.resize(hi - lo);
  const Lanes zero = broadcast(0.0);
  const Lanes one = broadcast(1.0);
  const Lanes sig_lo = broadcast(sig_prefix[lo]);
  const Lanes vsig_lo = broadcast(vsig_prefix[lo]);
  const Lanes sig_end = broadcast(sig_prefix[hi + 1]);
  const Lanes vsig_end = broadcast(vsig_prefix[hi + 1]);
  const Lanes whole_sig = broadcast(whole.sig);
  const bool whole_weighed = whole.sig > 0.0;
  const Lanes rep_hi = broadcast(values[hi]);
  std::size_t i = lo;
  for (; i + 1 < hi; i += 2) {
    const Lanes sig_mid = load_lanes(&sig_prefix[i + 1]);
    const Lanes vsig_mid = load_lanes(&vsig_prefix[i + 1]);
    const Lanes rep_lo = load_lanes(&values[i]);
    const Lanes low_sig = sig_mid - sig_lo;
    const Lanes low_vsig = vsig_mid - vsig_lo;
    const Lanes high_sig = sig_end - sig_mid;
    const Lanes high_vsig = vsig_end - vsig_mid;
    const Lanes v_lo = low_sig > zero ? low_vsig / low_sig : zero;
    const Lanes v_hi = high_sig > zero ? high_vsig / high_sig : zero;
    const Lanes p_lo = whole_weighed ? low_sig / whole_sig : zero;
    const Lanes p_hi = one - p_lo;
    const Lanes c = p_lo * p_lo * (rep_lo - v_lo) +
                    p_lo * p_hi * (rep_hi - v_lo) +
                    p_hi * p_lo * (rep_lo + rep_hi - v_hi) +
                    p_hi * p_hi * (rep_hi - v_hi);
    std::memcpy(&cost[i - lo], &c, sizeof c);
  }
  if (i < hi) {
    cost[i - lo] = two_bucket_cost(
        values[i], values[hi], whole,
        aggregate_prefix(sig_prefix, vsig_prefix, lo, i),
        aggregate_prefix(sig_prefix, vsig_prefix, i + 1, hi));
  }
}

std::vector<std::size_t> GreedyBucketing::compute_break_indices(
    const SortedRecords& sorted) {
  current_ = sorted;
  std::vector<std::size_t> ends;
  solve(0, sorted.size() - 1, ends);
  return ends;
}

void GreedyBucketing::solve(std::size_t lo, std::size_t hi,
                            std::vector<std::size_t>& ends) {
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
    // difference. Every split is costed first, then the first minimum is
    // taken in index order, as a compare-as-you-go scan would.
    prefix_split_costs(current_, lo, hi, split_costs_);
    for (std::size_t i = lo; i < hi; ++i) {
      if (split_costs_[i - lo] < min_cost) {
        min_cost = split_costs_[i - lo];
        best = i;
      }
    }
    // Not splitting is the last candidate, so an earlier equal-cost split
    // still wins the tie.
    const RangeAgg whole = aggregate_prefix(current_.sig_prefix,
                                            current_.vsig_prefix, lo, hi);
    if (current_.values[hi] - whole.mean < min_cost) best = hi;
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
