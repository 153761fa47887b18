#include "core/greedy_bucketing.hpp"

#include <cstring>
#include <limits>
#include <span>

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

/// What every split of the recursion node [lo..hi] reads.
struct Node {
  Node(const SortedRecords& s, std::size_t lo_, std::size_t hi_)
      : lo(lo_),
        hi(hi_),
        sig_lo(s.sig_prefix[lo_]),
        vsig_lo(s.vsig_prefix[lo_]),
        sig_end(s.sig_prefix[hi_ + 1]),
        vsig_end(s.vsig_prefix[hi_ + 1]),
        whole(aggregate_prefix(s.sig_prefix, s.vsig_prefix, lo_, hi_)),
        rep_hi(s.values[hi_]),
        // L·(2u·vsig_end + η + u·sig_end·rep_hi) over the node's L records:
        // a bound on how far a range sum read as a prefix difference can
        // sit from the exact sum of its records (docs/algorithms.md).
        prefix_error(static_cast<double>(hi_ - lo_ + 1) *
                     (2.0 * kUnitRoundoff * vsig_end + kDenormMin +
                      kUnitRoundoff * sig_end * rep_hi)) {}

  std::size_t lo, hi;
  double sig_lo, vsig_lo, sig_end, vsig_end;  // prefix entries at lo, hi + 1
  RangeAgg whole;
  double rep_hi;
  double prefix_error;
};

/// Sets out[i - first] to the cost of splitting the node after i, for i in
/// [first, last). Candidates i and i + 1 share one pass through the kernel.
/// Each lane repeats two_bucket_cost's operations in its order; where the
/// scalar code picks 0.0 for a range without significance, the lane
/// divides anyway and a select discards the result (no FP traps are
/// enabled). An odd last candidate takes the scalar path.
void split_costs(const SortedRecords& s, const Node& node, std::size_t first,
                 std::size_t last, double* out) {
  const Lanes zero = broadcast(0.0);
  const Lanes one = broadcast(1.0);
  const Lanes sig_lo = broadcast(node.sig_lo);
  const Lanes vsig_lo = broadcast(node.vsig_lo);
  const Lanes sig_end = broadcast(node.sig_end);
  const Lanes vsig_end = broadcast(node.vsig_end);
  const Lanes whole_sig = broadcast(node.whole.sig);
  const bool whole_weighed = node.whole.sig > 0.0;
  const Lanes rep_hi = broadcast(node.rep_hi);
  std::size_t i = first;
  for (; i + 1 < last; i += 2) {
    const Lanes sig_mid = load_lanes(&s.sig_prefix[i + 1]);
    const Lanes vsig_mid = load_lanes(&s.vsig_prefix[i + 1]);
    const Lanes rep_lo = load_lanes(&s.values[i]);
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
    std::memcpy(&out[i - first], &c, sizeof c);
  }
  if (i < last) {
    out[i - first] = two_bucket_cost(
        s.values[i], node.rep_hi, node.whole,
        aggregate_prefix(s.sig_prefix, s.vsig_prefix, node.lo, i),
        aggregate_prefix(s.sig_prefix, s.vsig_prefix, i + 1, node.hi));
  }
}

/// p·p'·f over a block, given the least and greatest p·p' and the least f:
/// the smaller product when f is non-negative, the larger one otherwise.
double least_term(double least_pp, double greatest_pp, double least_f) {
  return least_f >= 0.0 ? least_pp * least_f : greatest_pp * least_f;
}

/// A lower bound on the cost of every split i in [i0, i1] of the node,
/// widened by its rounding margin. Each of the four terms is p·p'·f with
/// p_lo, p_hi >= 0 monotone in i as computed (p_lo up, p_hi down), rep_lo
/// non-decreasing, and both bucket means non-decreasing in exact
/// arithmetic, so they are read at i1 and the margin covers how far a
/// computed mean can stray from that order. A zero low (high) significance
/// gives a zero mean, as in the kernel; a block where that changes inside
/// it gets an infinite margin and is evaluated. docs/algorithms.md proves
/// the margin.
double block_bound(const SortedRecords& s, const Node& node, std::size_t i0,
                   std::size_t i1) {
  const double inf = std::numeric_limits<double>::infinity();
  const double low_sig0 = s.sig_prefix[i0 + 1] - node.sig_lo;
  const double low_sig1 = s.sig_prefix[i1 + 1] - node.sig_lo;
  const double high_sig0 = node.sig_end - s.sig_prefix[i0 + 1];
  const double high_sig1 = node.sig_end - s.sig_prefix[i1 + 1];
  const double low_vsig1 = s.vsig_prefix[i1 + 1] - node.vsig_lo;
  const double high_vsig1 = node.vsig_end - s.vsig_prefix[i1 + 1];
  // The six divisions go two to a packed division; each lane rounds
  // exactly as the scalar division it stands for.
  const Lanes p_lo = node.whole.sig > 0.0 ? Lanes{low_sig0, low_sig1} /
                                                broadcast(node.whole.sig)
                                          : broadcast(0.0);
  const Lanes means = Lanes{low_vsig1, high_vsig1} / Lanes{low_sig1, high_sig1};
  const Lanes drifts = broadcast(node.prefix_error) / Lanes{low_sig0, high_sig1};
  const double p_lo0 = p_lo[0];
  const double p_lo1 = p_lo[1];
  const double p_hi0 = 1.0 - p_lo0;
  const double p_hi1 = 1.0 - p_lo1;
  const double v_lo = low_sig1 > 0.0 ? means[0] : 0.0;
  const double v_hi = high_sig1 > 0.0 ? means[1] : 0.0;
  const double rep_lo = s.values[i0];
  const double rep_hi = node.rep_hi;
  const double lower =
      least_term(p_lo0 * p_lo0, p_lo1 * p_lo1, rep_lo - v_lo) +
      least_term(p_lo0 * p_hi1, p_lo1 * p_hi0, rep_hi - v_lo) +
      least_term(p_hi1 * p_lo0, p_hi0 * p_lo1, rep_lo + rep_hi - v_hi) +
      least_term(p_hi1 * p_hi1, p_hi0 * p_hi0, rep_hi - v_hi);
  const double drift_lo = low_sig0 > 0.0   ? drifts[0]
                          : low_sig1 > 0.0 ? inf
                                           : 0.0;
  const double drift_hi = high_sig1 > 0.0   ? drifts[1]
                          : high_sig0 > 0.0 ? inf
                                            : 0.0;
  const double margin = 2.25 * (drift_lo + drift_hi) +
                        64.0 * kUnitRoundoff * (2.0 * rep_hi + v_lo + v_hi) +
                        16.0 * kDenormMin;
  return lower - margin;
}

}  // namespace

void GreedyBucketing::prefix_split_costs(const SortedRecords& sorted,
                                         std::size_t lo, std::size_t hi,
                                         std::vector<double>& cost) {
  cost.resize(hi - lo);
  split_costs(sorted, Node(sorted, lo, hi), lo, hi, cost.data());
}

double GreedyBucketing::split_block_bound(const SortedRecords& sorted,
                                         std::size_t lo, std::size_t hi,
                                         std::size_t i0, std::size_t i1) {
  return block_bound(sorted, Node(sorted, lo, hi), i0, i1);
}

ScanMin GreedyBucketing::best_split(const SortedRecords& sorted,
                                    std::size_t lo, std::size_t hi) {
  const Node node(sorted, lo, hi);
  ScanMin best = bounded_argmin(
      hi - lo, block_bounds_,
      [&](std::size_t j0, std::size_t j1) {
        return block_bound(sorted, node, lo + j0, lo + j1);
      },
      [&](std::size_t j0, std::size_t j1) {
        double cost[kScanBlock];
        split_costs(sorted, node, lo + j0, lo + j1 + 1, cost);
        ScanMin m;
        for (std::size_t j = j0; j <= j1; ++j) {
          if (cost[j - j0] < m.cost) {
            m.cost = cost[j - j0];
            m.index = j;
          }
        }
        return m;
      });
  if (best.index != ScanMin::kNone) best.index += lo;
  return best;
}

std::vector<std::size_t> GreedyBucketing::compute_break_indices(
    const SortedRecords& sorted) {
  std::vector<std::size_t> ends;
  solve(sorted, 0, sorted.size() - 1, ends);
  return ends;
}

void GreedyBucketing::solve(const SortedRecords& sorted, std::size_t lo,
                            std::size_t hi, std::vector<std::size_t>& ends) {
  if (lo == hi) {
    ends.push_back(lo);
    return;
  }
  const ScanMin split = best_split(sorted, lo, hi);
  // Not splitting is the last candidate, so an earlier equal-cost split
  // still wins the tie.
  const RangeAgg whole =
      aggregate_prefix(sorted.sig_prefix, sorted.vsig_prefix, lo, hi);
  if (split.index == ScanMin::kNone ||
      sorted.values[hi] - whole.mean < split.cost) {
    // Keeping one bucket over [lo, hi] beats every split.
    ends.push_back(hi);
    return;
  }
  solve(sorted, lo, split.index, ends);
  solve(sorted, split.index + 1, hi, ends);
}

}  // namespace tora::core
