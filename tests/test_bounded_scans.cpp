// Differential tests for the bounded argmin scans (core/bounded_argmin.hpp).
//
// Greedy Bucketing's split search and Tovar's first-allocation scan skip
// the 16-wide candidate blocks whose lower bound, widened by its rounding
// margin, is strictly above the best cost found so far. Each must return
// what costing every candidate and keeping the first minimum in index order
// returns: the same index and the same cost, bit for bit, at every node of
// the Greedy recursion and for both Tovar objectives. Runs of n = 1-49 and
// n = 4,000 records cover ties within and across blocks, runs of duplicates
// that straddle block edges, -0.0 next to 0.0, subnormals, values near
// 1e300, all-zero, mixed-zero and huge significances, optima in the first,
// last and middle blocks, and small sub-ranges deep in a long history of
// huge significances, where prefix differences cancel.
//
// Inputs come from gtest's random seed: 0 under a plain run, so tier-1
// stays deterministic; `--gtest_shuffle --gtest_repeat=N` draws a fresh
// seed per repeat (printed by gtest and in every failure message; replay
// one with --gtest_random_seed=N).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/bounded_argmin.hpp"
#include "core/greedy_bucketing.hpp"
#include "core/record_store.hpp"
#include "core/tovar.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::GreedyBucketing;
using tora::core::kScanBlock;
using tora::core::ScanMin;
using tora::core::SortedRecords;
using tora::core::TovarObjective;
using tora::core::TovarPolicy;
using tora::util::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t seed() {
  return static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The scan every bounded one must reproduce: first minimum by strict `<`.
ScanMin plain_scan(const std::vector<double>& costs, std::size_t offset = 0) {
  ScanMin m;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (costs[i] < m.cost) {
      m.cost = costs[i];
      m.index = offset + i;
    }
  }
  return m;
}

::testing::AssertionResult same_result(const ScanMin& got,
                                       const ScanMin& want) {
  if (got.index == want.index && same_bits(got.cost, want.cost)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "bounded scan chose index " << got.index << " cost " << got.cost
         << ", the full scan index " << want.index << " cost " << want.cost;
}

// ------------------------------------------------------------ the scan

TEST(BoundedArgmin, MatchesThePlainScanOnSyntheticBounds) {
  // Costs from a small set, so ties within and across blocks are common,
  // with NaN and infinities mixed in. Each block's bound is its exact
  // minimum, a looser lower bound, NaN or an infinity (which carry no
  // information and must never skip).
  Rng rng(seed() * 7 + 1);
  std::vector<double> bounds;
  std::size_t skipped = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = rng.uniform_int(0, 90);
    std::vector<double> costs(n);
    for (double& c : costs) {
      const double u = rng.uniform01();
      c = u < 0.04   ? kNaN
          : u < 0.06 ? kInf
          : u < 0.07 ? -kInf
          : u < 0.09 ? -0.0
                     : static_cast<double>(rng.uniform_int(0, 4));
    }
    std::vector<double> block_bound;
    for (std::size_t i0 = 0; i0 < n; i0 += kScanBlock) {
      double least = kInf;
      for (std::size_t i = i0; i < std::min(i0 + kScanBlock, n); ++i) {
        if (costs[i] < least) least = costs[i];
      }
      const double u = rng.uniform01();
      block_bound.push_back(u < 0.45   ? least
                            : u < 0.8  ? least - rng.uniform(0.0, 3.0)
                            : u < 0.87 ? kNaN
                            : u < 0.94 ? kInf
                                       : -kInf);
    }
    std::size_t evaluated = 0;
    const ScanMin got = tora::core::bounded_argmin(
        n, bounds,
        [&](std::size_t i0, std::size_t i1) {
          EXPECT_EQ(i1, std::min(i0 + kScanBlock, n) - 1);
          return block_bound[i0 / kScanBlock];
        },
        [&](std::size_t i0, std::size_t i1) {
          ++evaluated;
          ScanMin m;
          for (std::size_t i = i0; i <= i1; ++i) {
            if (costs[i] < m.cost) {
              m.cost = costs[i];
              m.index = i;
            }
          }
          return m;
        });
    ASSERT_TRUE(same_result(got, plain_scan(costs)))
        << "trial " << trial << " n=" << n << " seed=" << seed();
    skipped += block_bound.size() - evaluated;
  }
  EXPECT_GT(skipped, 1000u);
}

TEST(BoundedArgmin, TiesGoToTheLowestIndexAcrossBlocks) {
  // Block 2 has the least bound, so it is the warm start, but block 0
  // holds the same least cost at a lower index: its exact bound equals the
  // best cost, which is not strictly above it, so block 0 is evaluated and
  // wins the tie. Block 1 (bound 5 > 3) is skipped; block 3's NaN bound
  // and block 4's +inf bound skip nothing.
  std::vector<double> costs(80, 9.0);
  costs[7] = 3.0;
  costs[20] = 5.0;
  costs[40] = 3.0;
  costs[41] = 3.0;
  costs[60] = 4.0;
  costs[70] = 3.5;
  const std::vector<double> block_bound{3.0, 5.0, 1.0, kNaN, kInf};
  std::vector<double> bounds;
  std::vector<std::size_t> order;
  const auto run = [&] {
    order.clear();
    return tora::core::bounded_argmin(
        costs.size(), bounds,
        [&](std::size_t i0, std::size_t) { return block_bound[i0 / 16]; },
        [&](std::size_t i0, std::size_t i1) {
          order.push_back(i0 / 16);
          ScanMin m;
          for (std::size_t i = i0; i <= i1; ++i) {
            if (costs[i] < m.cost) {
              m.cost = costs[i];
              m.index = i;
            }
          }
          return m;
        });
  };
  ScanMin got = run();
  EXPECT_EQ(got.index, 7u);
  EXPECT_EQ(got.cost, 3.0);
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 0, 3, 4}));

  // The optimum behind a NaN bound and behind an infinite bound.
  costs[7] = 9.0;
  costs[50] = 1.0;
  got = run();
  EXPECT_EQ(got.index, 50u);
  costs[50] = 9.0;
  costs[66] = 2.0;
  got = run();
  EXPECT_EQ(got.index, 66u);
}

TEST(BoundedArgmin, NoCandidateOrNoFiniteCost) {
  std::vector<double> bounds;
  const auto never = [](std::size_t, std::size_t) -> ScanMin {
    ADD_FAILURE() << "no block to evaluate";
    return {};
  };
  const ScanMin none = tora::core::bounded_argmin(
      0, bounds, [](std::size_t, std::size_t) { return 0.0; }, never);
  EXPECT_EQ(none.index, ScanMin::kNone);
  EXPECT_EQ(none.cost, kInf);
  const std::vector<double> costs(40, kNaN);
  const ScanMin all_nan = tora::core::bounded_argmin(
      costs.size(), bounds, [](std::size_t, std::size_t) { return kNaN; },
      [&](std::size_t, std::size_t) { return ScanMin{}; });
  EXPECT_EQ(all_nan.index, ScanMin::kNone);
}

// ------------------------------------------------------------ inputs

enum class Values {
  Plain,        // uniform in [0, 64)
  Runs,         // runs of 1-40 equal values, straddling block edges
  TwoClusters,  // a low and a high cluster split near a chosen index
  Grid,         // 1, 2, ..., n: every Min Waste score ties exactly
  SignedZeros,  // 0.0, -0.0 and small values
  Subnormal,
  Huge,         // values near 1e300
};
enum class Sigs { Ones, Arrival, Random, AllZero, MixedZero, Huge };

constexpr Values kValueModes[] = {Values::Plain,       Values::Runs,
                                  Values::TwoClusters, Values::Grid,
                                  Values::SignedZeros, Values::Subnormal,
                                  Values::Huge};
constexpr Sigs kSigModes[] = {Sigs::Ones,    Sigs::Arrival,   Sigs::Random,
                              Sigs::AllZero, Sigs::MixedZero, Sigs::Huge};

std::vector<double> draw_values(Values mode, std::size_t n, Rng& rng) {
  std::vector<double> v;
  v.reserve(n);
  switch (mode) {
    case Values::Plain:
      for (std::size_t i = 0; i < n; ++i) v.push_back(rng.uniform(0.0, 64.0));
      break;
    case Values::Runs:
      while (v.size() < n) {
        const double x = static_cast<double>(rng.uniform_int(0, 50));
        const std::size_t run = rng.uniform_int(1, 40);
        for (std::size_t k = 0; k < run && v.size() < n; ++k) v.push_back(x);
      }
      break;
    case Values::TwoClusters: {
      // The split point falls in the first block, the last block or in
      // between, in equal shares.
      const double u = rng.uniform01();
      const double frac = u < 1.0 / 3   ? rng.uniform(0.0, 0.004)
                          : u < 2.0 / 3 ? rng.uniform(0.996, 1.0)
                                        : rng.uniform(0.05, 0.95);
      const auto low = static_cast<std::size_t>(frac * static_cast<double>(n));
      for (std::size_t i = 0; i < n; ++i) {
        v.push_back(i < low ? rng.normal(100.0, 5.0) : rng.normal(900.0, 30.0));
      }
      for (double& x : v) x = std::max(x, 0.0);
      break;
    }
    case Values::Grid:
      for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i + 1));
      break;
    case Values::SignedZeros:
      for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform01();
        v.push_back(u < 0.25 ? 0.0 : u < 0.5 ? -0.0 : rng.uniform(0.0, 4.0));
      }
      break;
    case Values::Subnormal:
      for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform01();
        v.push_back(u < 0.7 ? std::numeric_limits<double>::denorm_min() *
                                  static_cast<double>(rng.uniform_int(1, 1000000))
                    : u < 0.85 ? 0.0
                               : rng.uniform(0.0, 1e-300));
      }
      break;
    case Values::Huge:
      for (std::size_t i = 0; i < n; ++i) {
        v.push_back(rng.uniform01() < 0.6 ? rng.uniform(1e299, 1.7e308)
                                          : rng.uniform(0.0, 10.0));
      }
      break;
  }
  return v;
}

double draw_sig(Sigs mode, std::size_t arrival, Rng& rng) {
  const double u = rng.uniform01();
  switch (mode) {
    case Sigs::Ones:
      return 1.0;
    case Sigs::Arrival:  // the runtimes' significance: submission index + 1
      return static_cast<double>(arrival + 1);
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

/// A value-sorted run with prefix sums from extend_prefix_sums, its Tovar
/// twin (every significance 1), and a label carrying the seed.
struct SortedRun {
  std::vector<double> values, sigs, sig_prefix, vsig_prefix;
  std::vector<double> ones, one_prefix, value_prefix;
  std::string label;

  SortedRecords view() const {
    return {values, sigs, sig_prefix, vsig_prefix};
  }
};

SortedRun make_run(std::size_t n, Values vmode, Sigs smode,
                   std::uint64_t run_seed) {
  Rng rng(run_seed);
  SortedRun r;
  r.values = draw_values(vmode, n, rng);
  // Significance follows arrival order, which is the drawn order shuffled.
  for (std::size_t i = n; i > 1; --i) {
    std::swap(r.values[i - 1], r.values[rng.uniform_int(0, i - 1)]);
  }
  for (std::size_t i = 0; i < n; ++i) r.sigs.push_back(draw_sig(smode, i, rng));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.values[a] < r.values[b];
  });
  std::vector<double> values, sigs;
  for (std::size_t i : order) {
    values.push_back(r.values[i]);
    sigs.push_back(r.sigs[i]);
  }
  r.values = std::move(values);
  r.sigs = std::move(sigs);
  r.sig_prefix.assign(n + 1, 0.0);
  r.vsig_prefix.assign(n + 1, 0.0);
  tora::core::extend_prefix_sums(r.values, r.sigs, r.sig_prefix, r.vsig_prefix,
                                 0);
  r.ones.assign(n, 1.0);
  r.one_prefix.assign(n + 1, 0.0);
  r.value_prefix.assign(n + 1, 0.0);
  tora::core::extend_prefix_sums(r.values, r.ones, r.one_prefix,
                                 r.value_prefix, 0);
  r.label = "n=" + std::to_string(n) +
            " values=" + std::to_string(static_cast<int>(vmode)) +
            " sigs=" + std::to_string(static_cast<int>(smode)) +
            " run_seed=" + std::to_string(run_seed) +
            " (gtest seed " + std::to_string(seed()) + ")";
  return r;
}

/// Every size from 1 to 49 and 4,000, every value and significance mode.
/// All-zero significances make every split cost the same, so Greedy
/// splits one record off per level: at n = 4,000 that is 4,000 levels of
/// full scans, and the mode runs at n <= 49 only.
template <typename F>
void for_each_run(F&& f) {
  std::uint64_t run_seed = seed() * 1000003 + 1;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 49; ++n) sizes.push_back(n);
  sizes.push_back(4000);
  for (std::size_t n : sizes) {
    for (Values v : kValueModes) {
      for (Sigs s : kSigModes) {
        if (n > 49 && s == Sigs::AllZero) continue;
        f(make_run(n, v, s, run_seed++));
      }
    }
  }
}

// ------------------------------------------------------------ Greedy

/// Every split of [lo..hi] costed by the kernel, first minimum kept.
ScanMin full_split(const SortedRecords& s, std::size_t lo, std::size_t hi,
                   std::vector<double>& costs) {
  GreedyBucketing::prefix_split_costs(s, lo, hi, costs);
  return plain_scan(costs, lo);
}

/// Algorithm 1's recursion with the full scan at every node; `at_node`
/// sees each node and its full-scan result.
template <typename F>
void visit_nodes(const SortedRecords& s, std::size_t lo, std::size_t hi,
                 std::vector<double>& costs, std::vector<std::size_t>& ends,
                 F&& at_node) {
  if (lo == hi) {
    ends.push_back(lo);
    return;
  }
  const ScanMin split = full_split(s, lo, hi, costs);
  at_node(lo, hi, split);
  const double sig = s.sig_prefix[hi + 1] - s.sig_prefix[lo];
  const double vsig = s.vsig_prefix[hi + 1] - s.vsig_prefix[lo];
  const double mean = sig > 0.0 ? vsig / sig : 0.0;
  if (split.index == ScanMin::kNone || s.values[hi] - mean < split.cost) {
    ends.push_back(hi);
    return;
  }
  visit_nodes(s, lo, split.index, costs, ends, at_node);
  visit_nodes(s, split.index + 1, hi, costs, ends, at_node);
}

TEST(GreedyBoundedSplit, MatchesTheFullScanAtEveryNode) {
  // At every node of the recursion the bounded search returns the full
  // scan's split and cost, and every block's costs lie at or above its
  // bound (or the bound is NaN or infinite, which skips nothing).
  GreedyBucketing greedy(Rng(3));
  std::vector<double> costs;
  std::size_t nodes = 0, bounded_blocks = 0;
  std::size_t first_block = 0, last_block = 0, middle = 0;
  for_each_run([&](const SortedRun& r) {
    const SortedRecords s = r.view();
    std::vector<std::size_t> ends;
    visit_nodes(s, 0, s.size() - 1, costs, ends,
                [&](std::size_t lo, std::size_t hi, const ScanMin& want) {
                  ASSERT_TRUE(same_result(greedy.best_split(s, lo, hi), want))
                      << r.label << " node [" << lo << ", " << hi << "]";
                  ++nodes;
                  for (std::size_t i0 = lo; i0 < hi; i0 += kScanBlock) {
                    const std::size_t i1 = std::min(i0 + kScanBlock, hi) - 1;
                    const double bound =
                        GreedyBucketing::split_block_bound(s, lo, hi, i0, i1);
                    if (!std::isfinite(bound)) continue;
                    ++bounded_blocks;
                    for (std::size_t i = i0; i <= i1; ++i) {
                      ASSERT_FALSE(costs[i - lo] < bound)
                          << r.label << " node [" << lo << ", " << hi
                          << "] split " << i << " costs " << costs[i - lo]
                          << " below its block's bound " << bound;
                    }
                  }
                  if (want.index == ScanMin::kNone || hi - lo <= kScanBlock) {
                    return;
                  }
                  const std::size_t j = want.index - lo;
                  if (j < kScanBlock) {
                    ++first_block;
                  } else if (j >= (hi - lo - 1) / kScanBlock * kScanBlock) {
                    ++last_block;
                  } else {
                    ++middle;
                  }
                });
    ASSERT_EQ(greedy.break_indices(s), ends) << r.label;
  });
  EXPECT_GT(nodes, 20000u);
  EXPECT_GT(bounded_blocks, 20000u);
  EXPECT_GT(first_block, 50u);
  EXPECT_GT(last_block, 50u);
  EXPECT_GT(middle, 50u);
}

TEST(GreedyBoundedSplit, MatchesTheFullScanOnSubranges) {
  // Sub-ranges of every width from 1 to 49 candidates at random offsets,
  // and the ranges that end the history: for huge significances those sit
  // deep in a long high-significance prefix, where a prefix difference
  // cancels to a few ulps of the prefix and the bounds carry no weight.
  GreedyBucketing greedy(Rng(4));
  std::vector<double> costs;
  Rng offsets(seed() * 31 + 5);
  for_each_run([&](const SortedRun& r) {
    const SortedRecords s = r.view();
    const std::size_t n = s.size();
    for (std::size_t width = 1; width < std::min<std::size_t>(n, 50);
         ++width) {
      const std::size_t lo = offsets.uniform_int(0, n - 1 - width);
      for (std::size_t from : {lo, n - 1 - width}) {
        ASSERT_TRUE(same_result(greedy.best_split(s, from, from + width),
                                full_split(s, from, from + width, costs)))
            << r.label << " node [" << from << ", " << from + width << "]";
      }
    }
  });
}

TEST(GreedyBoundedSplit, CancellationDeepInAHighSignificanceHistory) {
  // 4,000 records of significance ~1e15 under 40 records above them in
  // value whose significances range from far below one ulp of the prefix
  // (~256) to a few thousand ulps: their prefix differences are zero,
  // coarse multiples of an ulp, or nearly exact. The bounded scan must
  // reproduce the full scan on every tail node and every recursion node.
  GreedyBucketing greedy(Rng(6));
  std::vector<double> costs;
  Rng rng(seed() * 17 + 3);
  std::size_t multi_bucket_tails = 0;
  for (const double tail_sig : {2.0, 300.0, 3000.0, 1e6}) {
    std::vector<double> values, sigs;
    for (std::size_t i = 0; i < 4000; ++i) {
      values.push_back(rng.uniform(0.0, 100.0));
      sigs.push_back(rng.uniform(1e14, 1e15));
    }
    for (std::size_t i = 0; i < 40; ++i) {
      values.push_back(rng.uniform01() < 0.5 ? rng.uniform(100.0, 110.0)
                                             : rng.uniform(190.0, 200.0));
      sigs.push_back(rng.uniform(0.0, tail_sig));
    }
    std::sort(values.begin(), values.begin() + 4000);
    std::sort(values.begin() + 4000, values.end());
    std::vector<double> sig_prefix(values.size() + 1, 0.0);
    std::vector<double> vsig_prefix(values.size() + 1, 0.0);
    tora::core::extend_prefix_sums(values, sigs, sig_prefix, vsig_prefix, 0);
    const SortedRecords s{values, sigs, sig_prefix, vsig_prefix};
    for (std::size_t lo = 4000; lo < values.size() - 1; ++lo) {
      for (std::size_t hi = lo + 1; hi < values.size(); ++hi) {
        ASSERT_TRUE(same_result(greedy.best_split(s, lo, hi),
                                full_split(s, lo, hi, costs)))
            << "tail significance " << tail_sig << " node [" << lo << ", "
            << hi << "] (gtest seed " << seed() << ")";
      }
    }
    std::vector<std::size_t> ends;
    visit_nodes(s, 4000, values.size() - 1, costs, ends,
                [&](std::size_t lo, std::size_t hi, const ScanMin& want) {
                  ASSERT_TRUE(same_result(greedy.best_split(s, lo, hi), want))
                      << "tail significance " << tail_sig << " node [" << lo
                      << ", " << hi << "] (gtest seed " << seed() << ")";
                });
    if (ends.size() > 1) ++multi_bucket_tails;
    ends.clear();
    visit_nodes(s, 0, values.size() - 1, costs, ends,
                [&](std::size_t lo, std::size_t hi, const ScanMin& want) {
                  ASSERT_TRUE(same_result(greedy.best_split(s, lo, hi), want))
                      << "tail significance " << tail_sig << " node [" << lo
                      << ", " << hi << "] (gtest seed " << seed() << ")";
                });
  }
  EXPECT_GE(multi_bucket_tails, 1u);
}

TEST(GreedyBoundedSplit, BoundsRuleOutMostBlocksOfARealisticHistory) {
  // 4,000 records from N(8192, 2048) with significance = arrival index:
  // Table I's history. At the root node almost every block's bound lies
  // above the least split cost, so the scan evaluates a small share.
  Rng rng(seed() * 13 + 2);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) values.push_back(std::max(1.0, rng.normal(8192.0, 2048.0)));
  std::vector<double> sigs(values.size());
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> sorted;
  for (std::size_t k = 0; k < order.size(); ++k) {
    sorted.push_back(values[order[k]]);
    sigs[k] = static_cast<double>(order[k] + 1);
  }
  std::vector<double> sig_prefix(sorted.size() + 1, 0.0);
  std::vector<double> vsig_prefix(sorted.size() + 1, 0.0);
  tora::core::extend_prefix_sums(sorted, sigs, sig_prefix, vsig_prefix, 0);
  const SortedRecords s{sorted, sigs, sig_prefix, vsig_prefix};
  std::vector<double> costs;
  const std::size_t hi = sorted.size() - 1;
  const ScanMin best = full_split(s, 0, hi, costs);
  std::size_t blocks = 0, ruled_out = 0;
  for (std::size_t i0 = 0; i0 < hi; i0 += kScanBlock, ++blocks) {
    const std::size_t i1 = std::min(i0 + kScanBlock, hi) - 1;
    if (GreedyBucketing::split_block_bound(s, 0, hi, i0, i1) > best.cost) {
      ++ruled_out;
    }
  }
  EXPECT_GT(ruled_out * 10, blocks * 9) << ruled_out << " of " << blocks;
}

// ------------------------------------------------------------ Tovar

/// Candidate i's cost as TovarPolicy's scan computes it (the Max
/// Throughput score negated), or NaN when i is not a candidate: not the
/// last of a run of equal values, or a <= 0 under Max Throughput.
double tovar_cost(TovarObjective objective, const std::vector<double>& values,
                  const std::vector<double>& value_prefix, std::size_t i) {
  const std::size_t n = values.size();
  if (i + 1 < n && values[i + 1] == values[i]) return kNaN;
  const double v_max = values.back();
  const double total = value_prefix[n];
  const double a = values[i];
  const double covered = static_cast<double>(i + 1);
  const double uncovered = static_cast<double>(n - i - 1);
  if (objective == TovarObjective::MinWaste) {
    const double covered_waste = covered * a - value_prefix[i + 1];
    const double uncovered_waste =
        uncovered * (a + v_max) - (total - value_prefix[i + 1]);
    return covered_waste + uncovered_waste;
  }
  if (a <= 0.0) return kNaN;
  const double p_cover = covered / static_cast<double>(n);
  return -(p_cover / a + (1.0 - p_cover) / (a + v_max));
}

/// TovarPolicy's scan over every candidate.
ScanMin full_tovar(TovarObjective objective, const std::vector<double>& values,
                   const std::vector<double>& value_prefix) {
  std::vector<double> costs;
  for (std::size_t i = 0; i < values.size(); ++i) {
    costs.push_back(tovar_cost(objective, values, value_prefix, i));
  }
  return plain_scan(costs);
}

constexpr TovarObjective kObjectives[] = {TovarObjective::MinWaste,
                                          TovarObjective::MaxThroughput};

TEST(TovarBoundedScan, MatchesTheFullScan) {
  std::vector<double> bounds;
  std::size_t found = 0;
  for_each_run([&](const SortedRun& r) {
    for (TovarObjective objective : kObjectives) {
      const ScanMin want = full_tovar(objective, r.values, r.value_prefix);
      ASSERT_TRUE(same_result(TovarPolicy::best_candidate(
                                  objective, r.values, r.value_prefix, bounds),
                              want))
          << r.label << " objective " << static_cast<int>(objective);
      if (want.index != ScanMin::kNone) ++found;
    }
  });
  EXPECT_GT(found, 2000u);
}

TEST(TovarBoundedScan, GridTiesGoToTheFirstCandidate) {
  // Values 1..n: every Min Waste score is n·n - total exactly, so the
  // first candidate wins a tie that spans every block.
  std::vector<double> bounds;
  for (std::size_t n : {17u, 40u, 4000u}) {
    std::vector<double> values, ones(n, 1.0), one_prefix(n + 1, 0.0),
        value_prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) values.push_back(static_cast<double>(i + 1));
    tora::core::extend_prefix_sums(values, ones, one_prefix, value_prefix, 0);
    const ScanMin got = TovarPolicy::best_candidate(
        TovarObjective::MinWaste, values, value_prefix, bounds);
    EXPECT_EQ(got.index, 0u) << "n=" << n;
    EXPECT_TRUE(same_result(
        got, full_tovar(TovarObjective::MinWaste, values, value_prefix)));
  }
}

TEST(TovarBoundedScan, BlockBoundsAreLowerBounds) {
  std::size_t checked = 0;
  for_each_run([&](const SortedRun& r) {
    const std::size_t n = r.values.size();
    for (TovarObjective objective : kObjectives) {
      for (std::size_t i0 = 0; i0 < n; i0 += kScanBlock) {
        const std::size_t i1 = std::min(i0 + kScanBlock, n) - 1;
        const double bound = TovarPolicy::block_bound(
            objective, r.values, r.value_prefix, i0, i1);
        if (!std::isfinite(bound)) continue;
        for (std::size_t i = i0; i <= i1; ++i) {
          const double cost =
              tovar_cost(objective, r.values, r.value_prefix, i);
          ASSERT_FALSE(cost < bound)
              << r.label << " objective " << static_cast<int>(objective)
              << " candidate " << i << " costs " << cost
              << " below its block's bound " << bound;
        }
        ++checked;
      }
    }
  });
  EXPECT_GT(checked, 5000u);
}

}  // namespace
