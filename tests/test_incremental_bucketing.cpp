// Differential property test for the incremental bucketing engine.
//
// A reference engine replays the original implementation's structure —
// per-observation sorted insertion into an AoS record vector and a full
// bucket rebuild before every use — while the production BucketingPolicy
// runs the merge-buffer RecordStore. At the default k = 1 schedule the two
// must agree BITWISE on every break index, bucket field, and RNG draw for
// arbitrary interleavings of observe / predict / retry / checkpoint-restore,
// for all four bucketing policies. The scheduled (growth > 0) leg relaxes
// the per-draw comparison and checks that a forced flush converges to the
// reference configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/bucket.hpp"
#include "core/bucketing_policy.hpp"
#include "core/exhaustive_bucketing.hpp"
#include "core/greedy_bucketing.hpp"
#include "core/kmeans_bucketing.hpp"
#include "core/quantized_bucketing.hpp"
#include "core/record.hpp"
#include "core/record_store.hpp"
#include "oracles/greedy_faithful.hpp"

namespace {

using tora::core::BucketingPolicy;
using tora::core::BucketSet;
using tora::core::ExhaustiveBucketing;
using tora::core::GreedyBucketing;
using tora::core::KMeansBucketing;
using tora::core::QuantizedBucketing;
using tora::core::Record;
using tora::core::SortedRecords;
using tora::util::Rng;

using PolicyFactory = std::function<std::unique_ptr<BucketingPolicy>(Rng)>;

/// Replays the pre-incremental implementation: AoS records kept sorted by
/// per-observation insertion, full prefix-sum + bucket rebuild whenever the
/// set is dirty. Break indices come from a scratch policy instance of the
/// same concrete type (break computation consumes no sampler state).
class ReferenceEngine {
 public:
  ReferenceEngine(std::uint64_t sampler_seed, BucketingPolicy& break_oracle)
      : rng_(sampler_seed), oracle_(break_oracle) {}

  void observe(double value, double significance) {
    const auto pos = std::upper_bound(
        records_.begin(), records_.end(), value,
        [](double v, const Record& r) { return v < r.value; });
    records_.insert(pos, {value, significance});
    dirty_ = true;
  }

  const BucketSet& buckets() {
    if (dirty_ || !built_) rebuild();
    return set_;
  }

  double predict() { return buckets().sample_allocation(rng_); }

  double retry(double failed_alloc) {
    if (!records_.empty()) {
      if (auto higher = buckets().sample_above(failed_alloc, rng_)) {
        return *higher;
      }
    }
    return failed_alloc > 0.0 ? failed_alloc * 2.0 : 1.0;
  }

 private:
  void rebuild() {
    const std::size_t n = records_.size();
    values_.resize(n);
    sigs_.resize(n);
    sig_prefix_.assign(n + 1, 0.0);
    vsig_prefix_.assign(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      values_[i] = records_[i].value;
      sigs_[i] = records_[i].significance;
      sig_prefix_[i + 1] = sig_prefix_[i] + sigs_[i];
      vsig_prefix_[i + 1] = vsig_prefix_[i] + values_[i] * sigs_[i];
    }
    const SortedRecords view{values_, sigs_, sig_prefix_, vsig_prefix_};
    const auto ends = oracle_.break_indices(view);
    set_ = BucketSet::from_break_indices(records_, ends);
    dirty_ = false;
    built_ = true;
  }

  Rng rng_;
  BucketingPolicy& oracle_;
  std::vector<Record> records_;
  std::vector<double> values_, sigs_, sig_prefix_, vsig_prefix_;
  BucketSet set_;
  bool dirty_ = false;
  bool built_ = false;
};

void expect_identical_sets(const BucketSet& got, const BucketSet& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& g = got.buckets()[i];
    const auto& w = want.buckets()[i];
    EXPECT_EQ(g.begin, w.begin) << "bucket " << i;
    EXPECT_EQ(g.end, w.end) << "bucket " << i;
    EXPECT_EQ(g.rep, w.rep) << "bucket " << i;          // bitwise
    EXPECT_EQ(g.prob, w.prob) << "bucket " << i;        // bitwise
    EXPECT_EQ(g.weighted_mean, w.weighted_mean) << "bucket " << i;
    EXPECT_EQ(g.sig_sum, w.sig_sum) << "bucket " << i;
  }
}

/// Random interleavings of observe / predict / retry / checkpoint-restore.
/// Every sampled value must match the reference engine bitwise.
void run_differential(const PolicyFactory& make, std::uint64_t seed) {
  const std::uint64_t sampler_seed = 0xb0cce7 + seed;
  std::unique_ptr<BucketingPolicy> engine = make(Rng(sampler_seed));
  std::unique_ptr<BucketingPolicy> oracle = make(Rng(999));  // rng unused
  ReferenceEngine ref(sampler_seed, *oracle);

  Rng ops(seed);
  std::vector<std::pair<double, double>> arrivals;  // original order
  double significance = 1.0;

  for (int step = 0; step < 400; ++step) {
    const double roll = ops.uniform01();
    if (arrivals.empty() || roll < 0.45) {
      double value = ops.uniform(0.0, 100.0);
      if (!arrivals.empty() && ops.uniform01() < 0.2) {
        // Exact duplicate of an earlier value: ties must merge identically.
        const auto idx = static_cast<std::size_t>(
            ops.uniform(0.0, static_cast<double>(arrivals.size())));
        value = arrivals[std::min(idx, arrivals.size() - 1)].first;
      }
      engine->observe(value, significance);
      ref.observe(value, significance);
      arrivals.emplace_back(value, significance);
      significance += 1.0;
    } else if (roll < 0.75) {
      ASSERT_EQ(engine->predict(), ref.predict()) << "step " << step;
    } else if (roll < 0.95) {
      const double failed = ops.uniform(0.0, 120.0);
      ASSERT_EQ(engine->retry(failed), ref.retry(failed)) << "step " << step;
    } else {
      // Checkpoint-restore: rebuild a fresh engine from the serialized
      // sampler state plus a replay of the completion history, exactly as
      // the checkpoint and recovery-snapshot paths do.
      const std::string state = engine->sampler_state();
      std::unique_ptr<BucketingPolicy> fresh = make(Rng(7777));
      for (const auto& [v, s] : arrivals) fresh->observe(v, s);
      fresh->flush_observations();
      fresh->restore_sampler_state(state);
      engine = std::move(fresh);
    }
  }
  if (!arrivals.empty()) {
    expect_identical_sets(engine->fresh_buckets(), ref.buckets());
  }
}

/// growth > 0: predictions may lawfully serve stale buckets mid-epoch, but
/// a forced flush must converge to the reference configuration, since both
/// engines hold the same record multiset.
void run_scheduled(const PolicyFactory& make, std::uint64_t seed) {
  std::unique_ptr<BucketingPolicy> engine = make(Rng(1 + seed));
  std::unique_ptr<BucketingPolicy> oracle = make(Rng(999));
  ReferenceEngine ref(1 + seed, *oracle);
  engine->set_rebuild_schedule({0.5});

  Rng ops(seed * 31 + 7);
  double significance = 1.0;
  for (int step = 0; step < 300; ++step) {
    const double value = ops.uniform(0.0, 100.0);
    engine->observe(value, significance);
    ref.observe(value, significance);
    significance += 1.0;
    if (step % 3 == 0) (void)engine->predict();  // exercise the stale path
  }
  EXPECT_LT(engine->rebuild_count(), 50u);  // the schedule actually amortized
  expect_identical_sets(engine->fresh_buckets(), ref.buckets());
}

PolicyFactory greedy_factory() {
  return [](Rng rng) { return std::make_unique<GreedyBucketing>(rng); };
}
PolicyFactory exhaustive_factory() {
  return [](Rng rng) { return std::make_unique<ExhaustiveBucketing>(rng); };
}
PolicyFactory kmeans_factory() {
  return [](Rng rng) { return std::make_unique<KMeansBucketing>(rng, 4); };
}
PolicyFactory quantized_factory() {
  return [](Rng rng) {
    return std::make_unique<QuantizedBucketing>(
        rng, std::vector<double>{0.25, 0.5, 0.75});
  };
}

TEST(IncrementalBucketing, GreedyMatchesReference) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    run_differential(greedy_factory(), seed);
  }
}

TEST(IncrementalBucketing, ExhaustiveMatchesReference) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    run_differential(exhaustive_factory(), seed);
  }
}

TEST(IncrementalBucketing, KMeansMatchesReference) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    run_differential(kmeans_factory(), seed);
  }
}

TEST(IncrementalBucketing, QuantizedMatchesReference) {
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    run_differential(quantized_factory(), seed);
  }
}

TEST(IncrementalBucketing, GreedyFaithfulCostModelMatchesReference) {
  PolicyFactory make = [](Rng rng) {
    return std::make_unique<tora::oracles::FaithfulGreedy>(rng);
  };
  run_differential(make, 51);
}

TEST(IncrementalBucketing, ScheduledModeConvergesOnFlush) {
  run_scheduled(greedy_factory(), 61);
  run_scheduled(exhaustive_factory(), 62);
  run_scheduled(kmeans_factory(), 63);
  run_scheduled(quantized_factory(), 64);
}

}  // namespace
