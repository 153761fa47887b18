#include "core/greedy_bucketing.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "oracles/greedy_faithful.hpp"

namespace {

using tora::core::GreedyBucketing;
using tora::core::Record;
using tora::util::Rng;

std::vector<Record> uniform_records(std::initializer_list<double> values) {
  std::vector<Record> r;
  for (double v : values) r.push_back({v, 1.0});
  return r;
}

TEST(GreedyBucketing, SplitCostUnsplitIsRepMinusMean) {
  const auto recs = uniform_records({2.0, 4.0, 6.0});
  // brk == hi evaluates the single-bucket configuration: 6 - 4 = 2.
  EXPECT_NEAR(tora::oracles::split_cost(recs, 0, 2, 2), 2.0, 1e-12);
}

TEST(GreedyBucketing, SplitCostHandComputedTwoBuckets) {
  // Records {1, 3}, split after index 0.
  // p_lo = p_hi = 0.5, rep_lo = 1, rep_hi = 3, v_lo = 1, v_hi = 3.
  // W = .25*(1-1) + .25*(3-1) + .25*(1+3-3) + .25*(3-3) = 0.5 + 0.25 = 0.75.
  const auto recs = uniform_records({1.0, 3.0});
  EXPECT_NEAR(tora::oracles::split_cost(recs, 0, 0, 1), 0.75, 1e-12);
}

TEST(GreedyBucketing, SplitCostUsesSignificanceWeights) {
  // Heavier significance on the high record raises p_hi.
  const std::vector<Record> recs{{1.0, 1.0}, {3.0, 3.0}};
  // p_lo = .25, p_hi = .75, v_lo = 1, v_hi = 3.
  // W = .0625*0 + .1875*2 + .1875*1 + .5625*0 = 0.5625.
  EXPECT_NEAR(tora::oracles::split_cost(recs, 0, 0, 1), 0.5625, 1e-12);
}

TEST(GreedyBucketing, SingleRecordOneBucket) {
  GreedyBucketing gb{Rng(1)};
  gb.observe(5.0, 1.0);
  const auto& set = gb.buckets();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.buckets()[0].rep, 5.0);
  EXPECT_DOUBLE_EQ(gb.predict(), 5.0);
}

TEST(GreedyBucketing, TightClusterStaysOneBucket) {
  GreedyBucketing gb{Rng(2)};
  for (double v : {10.0, 10.0, 10.0, 10.0, 10.0}) gb.observe(v, 1.0);
  EXPECT_EQ(gb.buckets().size(), 1u);
  EXPECT_DOUBLE_EQ(gb.predict(), 10.0);
}

TEST(GreedyBucketing, SeparatedClustersSplit) {
  GreedyBucketing gb{Rng(3)};
  for (double v : {1.0, 1.1, 1.2, 1.3, 100.0, 100.1, 100.2, 100.3}) {
    gb.observe(v, 1.0);
  }
  const auto& set = gb.buckets();
  ASSERT_GE(set.size(), 2u);
  // The first bucket must end exactly at the cluster boundary.
  EXPECT_DOUBLE_EQ(set.buckets()[0].rep, 1.3);
  EXPECT_DOUBLE_EQ(set.buckets().back().rep, 100.3);
}

TEST(GreedyBucketing, PredictReturnsSomeBucketRep) {
  GreedyBucketing gb{Rng(4)};
  for (double v : {1.0, 2.0, 50.0, 51.0}) gb.observe(v, 1.0);
  const auto& set = gb.buckets();
  for (int i = 0; i < 200; ++i) {
    const double a = gb.predict();
    bool is_rep = false;
    for (const auto& b : set.buckets()) is_rep |= (a == b.rep);
    EXPECT_TRUE(is_rep) << "prediction " << a << " is not a bucket rep";
  }
}

TEST(GreedyBucketing, RetryEscalatesAboveFailure) {
  GreedyBucketing gb{Rng(5)};
  for (double v : {1.0, 2.0, 50.0, 51.0}) gb.observe(v, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(gb.retry(2.0), 2.0);
  }
}

TEST(GreedyBucketing, RetryDoublesBeyondTopBucket) {
  GreedyBucketing gb{Rng(6)};
  for (double v : {1.0, 2.0, 4.0}) gb.observe(v, 1.0);
  EXPECT_DOUBLE_EQ(gb.retry(4.0), 8.0);
  EXPECT_DOUBLE_EQ(gb.retry(10.0), 20.0);
}

TEST(GreedyBucketing, RetryChainTerminates) {
  GreedyBucketing gb{Rng(7)};
  for (double v : {1.0, 5.0, 9.0, 13.0, 40.0}) gb.observe(v, 1.0);
  double alloc = gb.predict();
  const double demand = 100.0;  // above everything seen
  int attempts = 0;
  while (alloc < demand) {
    alloc = gb.retry(alloc);
    ASSERT_LT(++attempts, 64) << "retry chain did not terminate";
  }
  SUCCEED();
}

TEST(GreedyBucketing, RecencyShiftsBuckets) {
  // Phase change: early small tasks with low significance, late big tasks
  // with high significance. The top bucket must carry most probability.
  GreedyBucketing gb{Rng(8)};
  double sig = 1.0;
  for (int i = 0; i < 20; ++i) gb.observe(100.0, sig++);
  for (int i = 0; i < 20; ++i) gb.observe(1000.0, sig++);
  const auto& set = gb.buckets();
  ASSERT_GE(set.size(), 2u);
  EXPECT_GT(set.buckets().back().prob, 0.55);
}

TEST(GreedyBucketing, PredictBeforeRecordsThrows) {
  GreedyBucketing gb{Rng(9)};
  EXPECT_THROW(gb.predict(), std::logic_error);
}

TEST(GreedyBucketing, ObserveValidatesInput) {
  GreedyBucketing gb{Rng(10)};
  EXPECT_THROW(gb.observe(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(gb.observe(1.0, -1.0), std::invalid_argument);
}

TEST(GreedyBucketing, RecordsStaySorted) {
  GreedyBucketing gb{Rng(11)};
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) gb.observe(v, 1.0);
  const auto& recs = gb.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].value, recs[i].value);
  }
}

TEST(GreedyBucketing, RebuildCountTracksLazyRecompute) {
  GreedyBucketing gb{Rng(12)};
  gb.observe(1.0, 1.0);
  gb.observe(2.0, 2.0);
  EXPECT_EQ(gb.rebuild_count(), 0u);
  (void)gb.predict();
  EXPECT_EQ(gb.rebuild_count(), 1u);
  (void)gb.predict();  // no new record: reuse
  EXPECT_EQ(gb.rebuild_count(), 1u);
  gb.observe(3.0, 3.0);
  (void)gb.predict();
  EXPECT_EQ(gb.rebuild_count(), 2u);
}

}  // namespace
