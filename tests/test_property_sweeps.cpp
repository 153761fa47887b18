// Property-style TEST_P sweeps across every allocation policy and several
// record distributions: the cross-cutting invariants that make an allocator
// usable at all (positive predictions, strictly escalating retries,
// terminating retry chains, bucket-set well-formedness), plus end-to-end
// simulator invariants for every (policy × synthetic workflow) pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/bucketing_policy.hpp"
#include "core/greedy_bucketing.hpp"
#include "core/registry.hpp"
#include "exp/experiment.hpp"
#include "oracles/greedy_faithful.hpp"
#include "oracles/heap_queue.hpp"
#include "sim/calendar_queue.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::ResourceKind;
using tora::util::Rng;

// ------------------------------------------------- record stream shapes

struct RecordShape {
  const char* name;
  // Generates n record values.
  std::vector<double> (*make)(std::size_t n, Rng& rng);
};

std::vector<double> shape_constant(std::size_t n, Rng&) {
  return std::vector<double>(n, 306.0);
}
std::vector<double> shape_normal(std::size_t n, Rng& rng) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(std::max(1.0, rng.normal(800.0, 150.0)));
  }
  return v;
}
std::vector<double> shape_exponential(std::size_t n, Rng& rng) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(10.0 + rng.exponential(0.002));
  return v;
}
std::vector<double> shape_bimodal(std::size_t n, Rng& rng) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(rng.bernoulli(0.5) ? rng.uniform(100.0, 120.0)
                                   : rng.uniform(900.0, 1000.0));
  }
  return v;
}
std::vector<double> shape_phase_change(std::size_t n, Rng& rng) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(i < n / 2 ? rng.uniform(50.0, 60.0)
                          : rng.uniform(500.0, 600.0));
  }
  return v;
}

const RecordShape kShapes[] = {
    {"constant", shape_constant},   {"normal", shape_normal},
    {"exponential", shape_exponential}, {"bimodal", shape_bimodal},
    {"phase_change", shape_phase_change},
};

// --------------------------------------------- policy-level invariants

class PolicyInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
 protected:
  const std::string& policy_name() const { return std::get<0>(GetParam()); }
  const RecordShape& shape() const { return kShapes[std::get<1>(GetParam())]; }
};

TEST_P(PolicyInvariants, PredictionsPositiveAndRetriesEscalate) {
  auto factory = tora::core::make_policy_factory(policy_name(), 101);
  tora::core::AllocatorConfig cfg;
  auto policy = factory(ResourceKind::MemoryMB, cfg);
  Rng rng(7);
  const auto values = shape().make(120, rng);
  double sig = 1.0;
  for (double v : values) policy->observe(v, sig++);

  for (int i = 0; i < 50; ++i) {
    const double a = policy->predict();
    EXPECT_GT(a, 0.0);
  }
  for (double failed : {1.0, 100.0, 1000.0, 123456.0}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_GT(policy->retry(failed), failed)
          << policy_name() << " on " << shape().name;
    }
  }
}

TEST_P(PolicyInvariants, RetryChainReachesAnyDemand) {
  auto factory = tora::core::make_policy_factory(policy_name(), 202);
  tora::core::AllocatorConfig cfg;
  auto policy = factory(ResourceKind::MemoryMB, cfg);
  Rng rng(8);
  const auto values = shape().make(60, rng);
  double sig = 1.0;
  for (double v : values) policy->observe(v, sig++);

  const double demand = *std::max_element(values.begin(), values.end()) * 7.3;
  double alloc = policy->predict();
  int steps = 0;
  while (alloc < demand) {
    alloc = policy->retry(alloc);
    ASSERT_LT(++steps, 64) << policy_name() << " on " << shape().name;
  }
  SUCCEED();
}

TEST_P(PolicyInvariants, ObserveIsMonotoneInRecordCount) {
  auto factory = tora::core::make_policy_factory(policy_name(), 303);
  tora::core::AllocatorConfig cfg;
  auto policy = factory(ResourceKind::DiskMB, cfg);
  Rng rng(9);
  const auto values = shape().make(40, rng);
  std::size_t prev = policy->record_count();
  double sig = 1.0;
  for (double v : values) {
    policy->observe(v, sig++);
    // WholeMachine counts observations; every policy must not lose records.
    EXPECT_GE(policy->record_count() + 1, prev + 1);
    prev = policy->record_count();
  }
}

std::vector<std::tuple<std::string, std::size_t>> policy_shape_grid() {
  std::vector<std::tuple<std::string, std::size_t>> grid;
  for (const auto& p : tora::core::extended_policy_names()) {
    for (std::size_t s = 0; s < std::size(kShapes); ++s) grid.emplace_back(p, s);
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllShapes, PolicyInvariants,
    ::testing::ValuesIn(policy_shape_grid()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::size_t>>&
           info) {
      return std::get<0>(info.param) + "_" +
             kShapes[std::get<1>(info.param)].name;
    });

// -------------------------------------- bucketing-family well-formedness

class BucketSetInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(BucketSetInvariants, BucketsWellFormed) {
  const auto& [policy_name, shape_idx] = GetParam();
  auto factory = tora::core::make_policy_factory(policy_name, 404);
  tora::core::AllocatorConfig cfg;
  auto policy = factory(ResourceKind::MemoryMB, cfg);
  auto* bucketing = dynamic_cast<tora::core::BucketingPolicy*>(policy.get());
  ASSERT_NE(bucketing, nullptr);

  Rng rng(10);
  const auto values = kShapes[shape_idx].make(150, rng);
  double sig = 1.0;
  for (double v : values) bucketing->observe(v, sig++);

  const auto& set = bucketing->buckets();
  ASSERT_FALSE(set.empty());
  double prob_sum = 0.0;
  double prev_rep = -1.0;
  std::size_t covered = 0;
  for (const auto& b : set.buckets()) {
    EXPECT_GT(b.prob, 0.0);
    EXPECT_GT(b.rep, prev_rep);  // strictly increasing representatives
    EXPECT_LE(b.weighted_mean, b.rep + 1e-9);
    prob_sum += b.prob;
    covered += b.size();
    prev_rep = b.rep;
  }
  EXPECT_NEAR(prob_sum, 1.0, 1e-9);
  EXPECT_EQ(covered, values.size());
  // The top rep equals the max record value: every record is coverable.
  EXPECT_DOUBLE_EQ(set.max_rep(),
                   *std::max_element(values.begin(), values.end()));
}

std::vector<std::tuple<std::string, std::size_t>> bucketing_shape_grid() {
  std::vector<std::tuple<std::string, std::size_t>> grid;
  for (const char* p : {"greedy_bucketing", "exhaustive_bucketing",
                        "quantized_bucketing", "kmeans_bucketing"}) {
    for (std::size_t s = 0; s < std::size(kShapes); ++s) grid.emplace_back(p, s);
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    BucketingFamily, BucketSetInvariants,
    ::testing::ValuesIn(bucketing_shape_grid()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::size_t>>&
           info) {
      return std::get<0>(info.param) + "_" +
             kShapes[std::get<1>(info.param)].name;
    });

// -------------------------------------------- greedy cost-model identity

TEST(GreedyCostModels, PrefixSumMatchesFaithful) {
  Rng rng(11);
  for (const auto& shape : kShapes) {
    Rng local = rng.split(shape.name);
    const auto values = shape.make(90, local);
    tora::core::GreedyBucketing fast{Rng(1)};
    tora::oracles::FaithfulGreedy faithful{Rng(1)};
    double sig = 1.0;
    for (double v : values) {
      fast.observe(v, sig);
      faithful.observe(v, sig);
      sig += 1.0;
    }
    const auto& a = fast.buckets().buckets();
    const auto& b = faithful.buckets().buckets();
    ASSERT_EQ(a.size(), b.size()) << shape.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].rep, b[i].rep) << shape.name;
      EXPECT_NEAR(a[i].prob, b[i].prob, 1e-12) << shape.name;
    }
  }
}

// --------------------------------------- end-to-end simulator invariants

class EndToEndSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EndToEndSweep, WorkflowCompletesWithSaneMetrics) {
  const auto& [workflow, policy] = GetParam();
  tora::exp::ExperimentConfig cfg;
  cfg.sim.churn.enabled = false;
  cfg.sim.churn.initial_workers = 12;
  const auto r = tora::exp::run_experiment(workflow, policy, cfg);

  const auto total = r.sim.tasks_completed + r.sim.tasks_fatal;
  EXPECT_EQ(r.sim.tasks_fatal, 0u);
  EXPECT_EQ(total, r.sim.accounting.task_count() + r.sim.tasks_fatal);
  EXPECT_GT(r.sim.makespan_s, 0.0);
  for (ResourceKind k : tora::core::kManagedResources) {
    const auto& b = r.waste(k);
    EXPECT_GT(r.awe(k), 0.0) << workflow << "/" << policy;
    EXPECT_LE(r.awe(k), 1.0 + 1e-12) << workflow << "/" << policy;
    EXPECT_GE(b.internal_fragmentation, -1e-9);
    EXPECT_GE(b.failed_allocation, 0.0);
    EXPECT_NEAR(b.total_waste(),
                b.internal_fragmentation + b.failed_allocation,
                1e-6 * std::max(1.0, b.allocation));
  }
  EXPECT_GE(r.sim.accounting.mean_attempts(), 1.0);
}

std::vector<std::tuple<std::string, std::string>> sweep_grid() {
  std::vector<std::tuple<std::string, std::string>> grid;
  for (const char* wf : {"uniform", "exponential", "trimodal"}) {
    for (const auto& p : tora::core::extended_policy_names()) {
      grid.emplace_back(wf, p);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    WorkflowsTimesPolicies, EndToEndSweep, ::testing::ValuesIn(sweep_grid()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      return std::get<0>(info.param) + "_x_" + std::get<1>(info.param);
    });

// --------------------------------- event-queue engine differential sweep

// Property: under any seeded interleaving of pushes (with same-timestamp
// bursts) and pops, the calendar queue pops the bit-identical (time, seq)
// sequence as the binary-heap oracle — including across a snapshot taken
// mid-drain and restored into both (the canonical frame depends on the
// content alone, so each must also accept the other's bytes).
class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferential, HeapAndCalendarPopIdenticallyAcrossSnapshot) {
  using tora::oracles::BinaryHeapQueue;
  using tora::sim::CalendarQueue;
  using tora::sim::Event;
  using tora::sim::EventKind;
  constexpr int kLastKind = static_cast<int>(EventKind::DeadlineKill);

  Rng rng(GetParam());
  BinaryHeapQueue heap;
  CalendarQueue cal;

  const auto push_both = [&](double t, EventKind k, std::uint64_t a) {
    heap.push(t, k, a);
    cal.push(t, k, a);
  };
  const auto pop_both = [&]() {
    const Event eh = heap.pop();
    const Event ec = cal.pop();
    ASSERT_EQ(eh.time, ec.time);
    ASSERT_EQ(eh.seq, ec.seq);
    ASSERT_EQ(eh.kind, ec.kind);
    ASSERT_EQ(eh.a, ec.a);
  };

  // Phase 1: random mixed traffic. ~1/3 of pushes share one of a few
  // popular instants so ties cross band-activation boundaries.
  const double popular[] = {13.25, 999.0, 1e5};
  for (int round = 0; round < 1200; ++round) {
    if (heap.empty() || rng.bernoulli(0.65)) {
      const double t = rng.bernoulli(0.33)
                           ? popular[static_cast<std::size_t>(
                                 rng.uniform_int(0, 2))]
                           : rng.uniform(0.0, 2e5);
      const int burst = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < burst; ++i) {
        push_both(t, static_cast<EventKind>(rng.uniform_int(0, kLastKind)),
                  rng.uniform_int(0, 1 << 20));
      }
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_both());
    }
  }

  // Phase 2: snapshot mid-drain, cross-restore, and compare full drains.
  tora::util::ByteWriter wh;
  tora::util::ByteWriter wc;
  heap.save_state(wh);
  cal.save_state(wc);
  ASSERT_EQ(wh.bytes(), wc.bytes());  // the canonical frame

  BinaryHeapQueue heap_restored;
  CalendarQueue cal_restored;
  tora::util::ByteReader rh(wc.bytes());  // heap <- calendar bytes
  tora::util::ByteReader rc(wh.bytes());  // calendar <- heap bytes
  heap_restored.load_state(rh);
  cal_restored.load_state(rc);

  // New pushes after restore must continue the shared sequence numbering.
  for (int i = 0; i < 50; ++i) {
    const double t = rng.uniform(0.0, 2e5);
    heap_restored.push(t, EventKind::TaskSubmit, i);
    cal_restored.push(t, EventKind::TaskSubmit, i);
  }
  while (!heap_restored.empty()) {
    ASSERT_FALSE(cal_restored.empty());
    const Event eh = heap_restored.pop();
    const Event ec = cal_restored.pop();
    ASSERT_EQ(eh.time, ec.time);
    ASSERT_EQ(eh.seq, ec.seq);
    ASSERT_EQ(eh.a, ec.a);
  }
  EXPECT_TRUE(cal_restored.empty());
}

INSTANTIATE_TEST_SUITE_P(SeededRuns, EngineDifferential,
                         ::testing::Values(1u, 77u, 2024u, 0xabcdefu));

}  // namespace
