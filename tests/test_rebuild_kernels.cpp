// Differential test for the bucketing rebuild kernels.
//
// Each reference below is the straightforward form the library used before
// its kernel was tuned: the prefix recurrence that reads the previous sum
// back from the (possibly aliased) prefix array, Greedy's one-candidate-at-
// a-time PrefixSum scan, the expected-waste table as a vector of rows, and
// Exhaustive's search that builds a full BucketSet for every candidate. The
// tuned kernels must produce the same bits (memcmp on doubles: prefix sums,
// every Greedy split cost, expected waste) and the same break indices on
// seeded sorted runs of n = 1-9, 31-33 and 4,000 records, with duplicate
// values, -0.0 next to 0.0, subnormals, values near 1e300 (costs that
// overflow to inf or NaN), and all-zero, mixed-zero and huge
// significances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bucket.hpp"
#include "core/exhaustive_bucketing.hpp"
#include "core/greedy_bucketing.hpp"
#include "core/record_store.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::BucketSet;
using tora::core::ExhaustiveBucketing;
using tora::core::GreedyBucketing;
using tora::core::SortedRecords;
using tora::util::Rng;

// ------------------------------------------------------------ references

void ref_extend_prefix_sums(std::span<const double> values,
                            std::span<const double> significances,
                            std::span<double> sig_prefix,
                            std::span<double> vsig_prefix, std::size_t from) {
  for (std::size_t p = from; p < values.size(); ++p) {
    sig_prefix[p + 1] = sig_prefix[p] + significances[p];
    vsig_prefix[p + 1] = vsig_prefix[p] + values[p] * significances[p];
  }
}

struct RefAgg {
  double sig = 0.0;
  double mean = 0.0;
};

RefAgg ref_aggregate(const SortedRecords& s, std::size_t lo, std::size_t hi) {
  RefAgg a;
  a.sig = s.sig_prefix[hi + 1] - s.sig_prefix[lo];
  const double vsig = s.vsig_prefix[hi + 1] - s.vsig_prefix[lo];
  a.mean = a.sig > 0.0 ? vsig / a.sig : 0.0;
  return a;
}

double ref_two_bucket_cost(double rep_lo, double rep_hi, const RefAgg& whole,
                           const RefAgg& low, const RefAgg& high) {
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

std::vector<double> ref_split_costs(const SortedRecords& s, std::size_t lo,
                                    std::size_t hi) {
  const RefAgg whole = ref_aggregate(s, lo, hi);
  std::vector<double> costs;
  for (std::size_t i = lo; i < hi; ++i) {
    costs.push_back(ref_two_bucket_cost(s.values[i], s.values[hi], whole,
                                        ref_aggregate(s, lo, i),
                                        ref_aggregate(s, i + 1, hi)));
  }
  return costs;
}

void ref_greedy_solve(const SortedRecords& s, std::size_t lo, std::size_t hi,
                      std::vector<std::size_t>& ends) {
  if (lo == hi) {
    ends.push_back(lo);
    return;
  }
  double min_cost = std::numeric_limits<double>::infinity();
  std::size_t best = hi;
  const RefAgg whole = ref_aggregate(s, lo, hi);
  for (std::size_t i = lo; i < hi; ++i) {
    const double c =
        ref_two_bucket_cost(s.values[i], s.values[hi], whole,
                            ref_aggregate(s, lo, i), ref_aggregate(s, i + 1, hi));
    if (c < min_cost) {
      min_cost = c;
      best = i;
    }
  }
  if (s.values[hi] - whole.mean < min_cost) best = hi;
  if (best == hi) {
    ends.push_back(hi);
    return;
  }
  ref_greedy_solve(s, lo, best, ends);
  ref_greedy_solve(s, best + 1, hi, ends);
}

std::vector<std::size_t> ref_greedy_breaks(const SortedRecords& s) {
  std::vector<std::size_t> ends;
  ref_greedy_solve(s, 0, s.size() - 1, ends);
  return ends;
}

double ref_expected_waste(const BucketSet& set) {
  const auto& b = set.buckets();
  const std::size_t n = b.size();
  std::vector<std::vector<double>> t(n, std::vector<double>(n, 0.0));
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t j = n; j-- > 0;) suffix[j] = suffix[j + 1] + b[j].prob;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t jj = n; jj-- > 0;) {
      if (i <= jj) {
        t[i][jj] = b[jj].rep - b[i].weighted_mean;
      } else {
        double escalated = 0.0;
        const double denom = suffix[jj + 1];
        if (denom > 0.0) {
          for (std::size_t k = jj + 1; k < n; ++k) {
            escalated += (b[k].prob / denom) * t[i][k];
          }
        }
        t[i][jj] = b[jj].rep + escalated;
      }
    }
  }
  double w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w += b[i].prob * b[j].prob * t[i][j];
    }
  }
  return w;
}

std::vector<std::size_t> spacing_ends(std::span<const double> values,
                                      std::size_t num_buckets) {
  std::vector<std::size_t> ends;
  ExhaustiveBucketing::even_spacing_ends(values, num_buckets, ends);
  return ends;
}

std::vector<std::size_t> ref_exhaustive_breaks(const SortedRecords& s,
                                               std::size_t max_buckets) {
  const std::size_t n = s.size();
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_ends{n - 1};
  const std::size_t limit = std::min(max_buckets, n);
  for (std::size_t b = 1; b <= limit; ++b) {
    auto ends = spacing_ends(s.values, b);
    const double cost = ref_expected_waste(BucketSet::from_sorted(s, ends));
    if (cost < best_cost) {
      best_cost = cost;
      best_ends = std::move(ends);
    }
  }
  return best_ends;
}

// ------------------------------------------------------------ inputs

enum class Values { Plain, Duplicates, SignedZeros, Subnormal, Huge };
enum class Sigs { Ones, Random, AllZero, MixedZero, Huge };

constexpr Values kValueModes[] = {Values::Plain, Values::Duplicates,
                                  Values::SignedZeros, Values::Subnormal,
                                  Values::Huge};
constexpr Sigs kSigModes[] = {Sigs::Ones, Sigs::Random, Sigs::AllZero,
                              Sigs::MixedZero, Sigs::Huge};
constexpr std::size_t kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 4000};

double draw_value(Values mode, Rng& rng, const std::vector<double>& so_far) {
  const double u = rng.uniform01();
  switch (mode) {
    case Values::Plain:
      return rng.uniform(0.0, 64.0);
    case Values::Duplicates:
      if (!so_far.empty() && u < 0.5) {
        return so_far[static_cast<std::size_t>(rng.uniform01() *
                                               static_cast<double>(
                                                   so_far.size())) %
                      so_far.size()];
      }
      return static_cast<double>(static_cast<int>(rng.uniform(0.0, 6.0)));
    case Values::SignedZeros:
      if (u < 0.25) return 0.0;
      if (u < 0.5) return -0.0;
      return rng.uniform(0.0, 4.0);
    case Values::Subnormal:
      if (u < 0.7) {
        return std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + static_cast<int>(rng.uniform(0.0, 1e6)));
      }
      return u < 0.85 ? 0.0 : rng.uniform(0.0, 1e-300);
    case Values::Huge:
      if (u < 0.6) return rng.uniform(1e299, 1.7e308);
      return rng.uniform(0.0, 10.0);
  }
  return 0.0;
}

double draw_sig(Sigs mode, Rng& rng) {
  const double u = rng.uniform01();
  switch (mode) {
    case Sigs::Ones:
      return 1.0;
    case Sigs::Random:
      return rng.uniform(0.0, 1e4);
    case Sigs::AllZero:
      return 0.0;
    case Sigs::MixedZero:
      return u < 0.5 ? 0.0 : rng.uniform(0.0, 3.0);
    case Sigs::Huge:
      return u < 0.3 ? rng.uniform(1e300, 1.7e308) : rng.uniform(0.0, 1e10);
  }
  return 0.0;
}

/// A value-sorted run with its prefix sums, built with the reference
/// recurrence, so every kernel reads the arrays the straightforward loop
/// produces.
struct SortedRun {
  std::vector<double> values;
  std::vector<double> sigs;
  std::vector<double> sig_prefix;
  std::vector<double> vsig_prefix;
  std::uint64_t seed = 0;
  std::string label;

  SortedRecords view() const {
    return {values, sigs, sig_prefix, vsig_prefix};
  }
};

SortedRun make_run(std::size_t n, Values vmode, Sigs smode, std::uint64_t seed) {
  Rng rng(seed);
  SortedRun r;
  r.seed = seed;
  for (std::size_t i = 0; i < n; ++i) {
    r.values.push_back(draw_value(vmode, rng, r.values));
    r.sigs.push_back(draw_sig(smode, rng));
  }
  std::sort(r.values.begin(), r.values.end());
  r.sig_prefix.assign(n + 1, 0.0);
  r.vsig_prefix.assign(n + 1, 0.0);
  ref_extend_prefix_sums(r.values, r.sigs, r.sig_prefix, r.vsig_prefix, 0);
  r.label = "n=" + std::to_string(n) + " values=" +
            std::to_string(static_cast<int>(vmode)) +
            " sigs=" + std::to_string(static_cast<int>(smode)) +
            " seed=" + std::to_string(seed);
  return r;
}

template <typename F>
void for_each_run(F&& f) {
  std::uint64_t seed = 1;
  for (std::size_t n : kSizes) {
    for (Values v : kValueModes) {
      for (Sigs s : kSigModes) {
        for (int rep = 0; rep < 2; ++rep) f(make_run(n, v, s, seed++));
      }
    }
  }
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ------------------------------------------------------------ tests

TEST(RebuildKernels, PrefixRecurrenceMatchesTheAliasingLoop) {
  for_each_run([](const SortedRun& r) {
    const std::size_t n = r.values.size();
    for (std::size_t from : {std::size_t{0}, n / 2, n - 1, n}) {
      // Entries [0, from] come from the reference; both extend the rest.
      std::vector<double> sig(r.sig_prefix.begin(),
                              r.sig_prefix.begin() +
                                  static_cast<std::ptrdiff_t>(from) + 1);
      std::vector<double> vsig(r.vsig_prefix.begin(),
                               r.vsig_prefix.begin() +
                                   static_cast<std::ptrdiff_t>(from) + 1);
      sig.resize(n + 1, -1.0);
      vsig.resize(n + 1, -1.0);
      std::vector<double> ref_sig = sig;
      std::vector<double> ref_vsig = vsig;
      tora::core::extend_prefix_sums(r.values, r.sigs, sig, vsig, from);
      ref_extend_prefix_sums(r.values, r.sigs, ref_sig, ref_vsig, from);
      ASSERT_TRUE(same_bits(sig, ref_sig)) << r.label << " from=" << from;
      ASSERT_TRUE(same_bits(vsig, ref_vsig)) << r.label << " from=" << from;
      ASSERT_TRUE(same_bits(sig, r.sig_prefix)) << r.label;
      ASSERT_TRUE(same_bits(vsig, r.vsig_prefix)) << r.label;
    }
  });
}

TEST(RebuildKernels, GreedySplitCostsMatchTheScalarCosts) {
  // Every split cost of the whole run and of subranges whose candidate
  // count hi - lo takes every value from 1 to 8 (both parities, so both
  // the paired lanes and the scalar tail), at seeded offsets.
  std::vector<double> got;
  std::size_t compared = 0;
  for_each_run([&](const SortedRun& r) {
    const std::size_t n = r.values.size();
    if (n < 2) return;
    Rng offsets(r.seed + 7);
    std::vector<std::pair<std::size_t, std::size_t>> ranges{{0, n - 1}};
    for (std::size_t d = 1; d <= 8 && d < n; ++d) {
      const auto lo = static_cast<std::size_t>(
          offsets.uniform01() * static_cast<double>(n - d));
      ranges.emplace_back(std::min(lo, n - 1 - d), std::min(lo, n - 1 - d) + d);
    }
    for (const auto& [lo, hi] : ranges) {
      GreedyBucketing::prefix_split_costs(r.view(), lo, hi, got);
      const std::vector<double> expected = ref_split_costs(r.view(), lo, hi);
      ASSERT_TRUE(same_bits(got, expected))
          << r.label << " lo=" << lo << " hi=" << hi;
      compared += expected.size();
    }
  });
  EXPECT_GT(compared, 100000u);
}

TEST(RebuildKernels, GreedySplitScanMatchesTheScalarSolve) {
  // One policy for every run, so its split-cost scratch is reused across
  // runs of every size.
  GreedyBucketing greedy(Rng(3));
  std::size_t multi_bucket = 0;
  for_each_run([&](const SortedRun& r) {
    const auto got = greedy.break_indices(r.view());
    ASSERT_EQ(got, ref_greedy_breaks(r.view())) << r.label;
    if (got.size() > 1) ++multi_bucket;
  });
  // The inputs must exercise the split path, not only "do not split".
  EXPECT_GT(multi_bucket, 200u);
}

TEST(RebuildKernels, GreedyTakesAnOddOrEvenLastSplit) {
  // n - 1 equal records under one outlier: the best split is the last
  // candidate, hi - 1. For even n the candidates [0, hi) are odd in number
  // and the last one takes the scalar tail; for odd n it is the second
  // lane of the last pair.
  GreedyBucketing greedy(Rng(5));
  for (std::size_t n = 2; n <= 12; ++n) {
    std::vector<double> values(n, 1.0);
    values.back() = 1000.0;
    const std::vector<double> sigs(n, 1.0);
    std::vector<double> sig_prefix(n + 1, 0.0);
    std::vector<double> vsig_prefix(n + 1, 0.0);
    ref_extend_prefix_sums(values, sigs, sig_prefix, vsig_prefix, 0);
    const SortedRecords s{values, sigs, sig_prefix, vsig_prefix};
    const std::vector<std::size_t> expected{n - 2, n - 1};
    EXPECT_EQ(greedy.break_indices(s), expected) << "n=" << n;
    EXPECT_EQ(ref_greedy_breaks(s), expected) << "n=" << n;
  }
}

TEST(RebuildKernels, ExpectedWasteMatchesTheNestedTable) {
  std::size_t finite = 0;
  for_each_run([&](const SortedRun& r) {
    if (!(r.sig_prefix.back() > 0.0)) return;  // BucketSet refuses it
    const std::size_t n = r.values.size();
    Rng cuts(r.seed + 1000003);
    std::vector<std::vector<std::size_t>> configs;
    for (std::size_t b = 1; b <= 12; ++b) {
      configs.push_back(spacing_ends(r.values, b));
    }
    // Random break lists of up to 40 buckets (the table is cubic in them).
    const double cut_prob = std::min(0.3, 40.0 / static_cast<double>(n));
    for (int k = 0; k < 4; ++k) {
      std::vector<std::size_t> ends;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (cuts.uniform01() < cut_prob) ends.push_back(i);
      }
      ends.push_back(n - 1);
      configs.push_back(std::move(ends));
    }
    for (const auto& ends : configs) {
      const BucketSet set = BucketSet::from_sorted(r.view(), ends);
      const double got = tora::core::expected_waste(set);
      ASSERT_TRUE(same_bits(got, ref_expected_waste(set)))
          << r.label << " buckets=" << ends.size() << " got " << got;
      if (std::isfinite(got)) ++finite;
    }
  });
  EXPECT_GT(finite, 1000u);
}

TEST(RebuildKernels, ExhaustiveBreaksMatchThePerCandidateBucketSets) {
  // One policy per cap for every run, so the scoring scratch is reused.
  for (std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
    ExhaustiveBucketing exhaustive(Rng(7), cap);
    for_each_run([&](const SortedRun& r) {
      if (!(r.sig_prefix.back() > 0.0)) {
        EXPECT_THROW(exhaustive.break_indices(r.view()),
                     std::invalid_argument)
            << r.label;
        EXPECT_THROW(ref_exhaustive_breaks(r.view(), cap),
                     std::invalid_argument)
            << r.label;
        return;
      }
      ASSERT_EQ(exhaustive.break_indices(r.view()),
                ref_exhaustive_breaks(r.view(), cap))
          << r.label << " cap=" << cap;
    });
  }
}

}  // namespace
