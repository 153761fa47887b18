// The worker pool's exact running totals against the per-worker walk they
// replaced (tests/oracles/pool_walk.hpp): the simulator's utilization
// integrals agree with the walk's to 1e-11 relative on grid seeds 1-2, a
// three-profile heterogeneous pool, eviction storms with live speculative
// duplicates and a 1,000-worker pool. A property test applies one set of
// joins, starts, finishes and evictions in shuffled orders and gets the
// same total bits, and a committed total of exactly 0 once the pool is
// idle. The checked conversion refuses what the format cannot hold where
// a capacity enters, and pool snapshots carry the exact commitments.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "core/exact_resources.hpp"
#include "core/registry.hpp"
#include "core/snapshot_fields.hpp"
#include "exp/experiment.hpp"
#include "oracles/pool_walk.hpp"
#include "sim/simulation.hpp"
#include "sim/worker_pool.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::ExactRangeError;
using tora::core::ExactResources;
using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::sim::SimConfig;
using tora::sim::SimResult;
using tora::sim::Simulation;
using tora::sim::WorkerPool;
using tora::util::Rng;

constexpr ResourceVector kCap{16.0, 65536.0, 65536.0};

struct Walked {
  SimResult result;
  ResourceVector committed;
  ResourceVector capacity;
};

/// One simulation with the walk attached, set up as run_experiment sets up
/// a grid cell.
Walked run_walked(const tora::workloads::Workload& wl, const std::string& policy,
                  const tora::exp::ExperimentConfig& cfg) {
  auto alloc = tora::core::make_allocator(policy, cfg.policy_seed,
                                          cfg.sim.worker_capacity,
                                          cfg.registry);
  Simulation sim(wl.tasks, alloc, cfg.sim);
  tora::oracles::PoolWalkIntegrals walk(sim);
  sim.set_observer(&walk);
  Walked w;
  w.result = sim.run();
  w.committed = walk.committed;
  w.capacity = walk.capacity;
  return w;
}

void expect_close(const ResourceVector& got, const ResourceVector& want,
                  const std::string& what) {
  for (ResourceKind k : tora::core::kAllResources) {
    if (want[k] == 0.0) {
      EXPECT_EQ(got[k], 0.0) << what << " " << tora::core::to_string(k);
    } else {
      EXPECT_LE(std::abs(got[k] - want[k]), 1e-11 * std::abs(want[k]))
          << what << " " << tora::core::to_string(k) << ": " << got[k]
          << " vs the walk's " << want[k];
    }
  }
}

void expect_matches_walk(const Walked& w, const std::string& label) {
  expect_close(w.result.committed_integral, w.committed,
               label + " committed");
  expect_close(w.result.capacity_integral, w.capacity, label + " capacity");
  EXPECT_GT(w.capacity[ResourceKind::Cores], 0.0) << label;
}

// ----------------------------------------------------- against the walk

class PoolTotalsGrid : public ::testing::TestWithParam<std::string> {};

TEST_P(PoolTotalsGrid, IntegralsMatchTheWalkAtSeedsOneAndTwo) {
  for (std::uint64_t seed : {1u, 2u}) {
    tora::exp::ExperimentConfig cfg;
    cfg.workload_seed = seed;
    const auto wl = tora::workloads::make_workload(GetParam(), seed);
    for (const std::string& policy : tora::core::all_policy_names()) {
      expect_matches_walk(run_walked(wl, policy, cfg),
                          GetParam() + "/" + policy + " seed " +
                              std::to_string(seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryWorkflow, PoolTotalsGrid,
    ::testing::ValuesIn(tora::workloads::all_workflow_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(PoolTotals, ThreeProfileHeterogeneousPoolMatchesTheWalk) {
  tora::exp::ExperimentConfig cfg;
  cfg.workload_seed = 1;
  // Sub-core and non-dyadic capacities: the float walk rounds them.
  cfg.sim.worker_profiles = {{2.0, {8.0, 16384.0, 32768.0}},
                             {1.0, {16.0, 65536.0, 65536.0}},
                             {1.0, {4.5, 10000.3, 20000.7}}};
  for (const char* workflow : {"topeft", "trimodal", "colmena_xtb"}) {
    const auto wl = tora::workloads::make_workload(workflow, 1);
    for (const char* policy : {"max_seen", "exhaustive_bucketing"}) {
      expect_matches_walk(run_walked(wl, policy, cfg),
                          std::string(workflow) + "/" + policy);
    }
  }
}

// The storm scenario of PinnedResilience.SimulatorStormsWithEveryFeature.
TEST(PoolTotals, StormsWithLiveSpeculativeDuplicatesMatchTheWalk) {
  tora::exp::ExperimentConfig cfg;
  cfg.policy_seed = 7;
  cfg.sim = SimConfig{};
  cfg.sim.seed = 3;
  cfg.sim.churn.initial_workers = 20;
  cfg.sim.churn.min_workers = 12;
  cfg.sim.churn.max_workers = 24;
  cfg.sim.churn.mean_interarrival_s = 15.0;
  cfg.sim.churn.mean_lifetime_s = 36000.0;
  cfg.sim.churn.storm_interval_s = 300.0;
  cfg.sim.churn.storm_duration_s = 30.0;
  cfg.sim.churn.storm_evict_fraction = 0.6;
  cfg.sim.resilience.deadlines = true;
  cfg.sim.resilience.speculation = true;
  cfg.sim.resilience.storm_control = true;
  cfg.sim.resilience.deadline_quantile = 1.0;
  cfg.sim.resilience.deadline_slack = 3.0;
  cfg.sim.resilience.min_records = 20;
  cfg.sim.resilience.degraded_inflight_cap = 40;
  const auto wl = tora::workloads::make_workload("normal", 1);
  const Walked w = run_walked(wl, "exhaustive_bucketing", cfg);
  // Duplicates ran, and some outlived their primary's worker.
  EXPECT_GT(w.result.resilience.speculations_launched, 0u);
  EXPECT_GT(w.result.resilience.speculations_promoted, 0u);
  EXPECT_GT(w.result.evictions, 0u);
  expect_matches_walk(w, "normal storms");
}

TEST(PoolTotals, ThousandWorkerPoolMatchesTheWalk) {
  tora::exp::ExperimentConfig cfg;
  cfg.workload_seed = 1;
  cfg.sim.churn.initial_workers = 1000;
  cfg.sim.churn.min_workers = 500;
  cfg.sim.churn.max_workers = 1000;
  const auto wl = tora::workloads::make_workload("trimodal", 1);
  const Walked w = run_walked(wl, "max_seen", cfg);
  EXPECT_EQ(w.result.peak_workers, 1000u);
  expect_matches_walk(w, "trimodal on 1,000 workers");
}

// ------------------------------------------------------ shuffled orders

/// One worker of the property test: its capacity, the allocations of the
/// tasks it runs (their sum fits, so any subset fits in any order), which
/// of them finish, and whether the worker is evicted after its other ops.
struct PlannedWorker {
  ResourceVector capacity;
  std::vector<ResourceVector> allocs;
  std::vector<bool> finishes;
  bool evicted = false;
};

std::vector<PlannedWorker> plan_workers(Rng& rng) {
  std::vector<PlannedWorker> plan(40);
  for (PlannedWorker& w : plan) {
    // Non-dyadic capacities and allocations: float sums of them depend on
    // the order they are added in.
    w.capacity = ResourceVector{rng.uniform(1.0, 64.0),
                                rng.uniform(1000.0, 200000.0),
                                rng.uniform(1000.0, 200000.0),
                                rng.uniform(0.0, 10.0)};
    const auto tasks = rng.uniform_int(0, 6);
    for (std::uint64_t t = 0; t < tasks; ++t) {
      ResourceVector a;
      for (ResourceKind k : tora::core::kAllResources) {
        a[k] = w.capacity[k] * rng.uniform(0.0, 0.16);
      }
      w.allocs.push_back(a);
      w.finishes.push_back(rng.uniform01() < 0.7);
    }
    w.evicted = rng.uniform01() < 0.3;
  }
  return plan;
}

/// Applies the plan in a random order that keeps each worker's join first,
/// each finish after its start and each eviction last; returns the pool
/// and the task ids of the attempts still running (with their workers and
/// allocations) afterwards.
struct Applied {
  WorkerPool pool{kCap};
  struct Live {
    std::uint64_t worker;
    std::uint64_t task;
    ResourceVector alloc;
  };
  std::vector<Live> running;
};

Applied apply_shuffled(const std::vector<PlannedWorker>& plan,
                       std::uint64_t seed) {
  Rng rng(seed);
  Applied out;
  struct Progress {
    bool joined = false;
    std::uint64_t id = 0;
    std::vector<int> state;  // per task: 0 not started, 1 running, 2 done
    bool gone = false;
  };
  std::vector<Progress> prog(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    prog[i].state.assign(plan[i].allocs.size(), 0);
  }
  // Ops as (worker, task) pairs: task -1 = join, -2 = evict.
  std::vector<std::pair<std::size_t, int>> ready;
  const auto task_id = [](std::size_t w, int t) {
    return static_cast<std::uint64_t>(w * 100 + static_cast<std::size_t>(t));
  };
  while (true) {
    ready.clear();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Progress& p = prog[i];
      if (p.gone) continue;
      if (!p.joined) {
        ready.push_back({i, -1});
        continue;
      }
      bool settled = true;
      for (std::size_t t = 0; t < p.state.size(); ++t) {
        if (p.state[t] == 0) ready.push_back({i, static_cast<int>(t)});
        if (p.state[t] == 1 && plan[i].finishes[t]) {
          ready.push_back({i, static_cast<int>(t)});
        }
        settled = settled && (p.state[t] == 2 ||
                              (p.state[t] == 1 && !plan[i].finishes[t]));
      }
      if (settled && plan[i].evicted) ready.push_back({i, -2});
    }
    if (ready.empty()) break;
    const auto [w, t] = ready[rng.uniform_int(0, ready.size() - 1)];
    Progress& p = prog[w];
    if (t == -1) {
      p.id = out.pool.add_worker(plan[w].capacity);
      p.joined = true;
    } else if (t == -2) {
      out.pool.remove_worker(p.id);
      p.gone = true;
    } else if (p.state[t] == 0) {
      out.pool.start(p.id, task_id(w, t), plan[w].allocs[t]);
      p.state[t] = 1;
    } else {
      out.pool.finish(p.id, task_id(w, t), plan[w].allocs[t]);
      p.state[t] = 2;
    }
  }
  for (std::size_t w = 0; w < plan.size(); ++w) {
    if (prog[w].gone) continue;
    for (std::size_t t = 0; t < plan[w].allocs.size(); ++t) {
      if (prog[w].state[t] == 1) {
        out.running.push_back({prog[w].id, task_id(w, static_cast<int>(t)),
                               plan[w].allocs[t]});
      }
    }
  }
  return out;
}

TEST(PoolTotalsProperty, ShuffledOrdersGiveTheSameBitsAndAnIdleZero) {
  Rng plan_rng(2611);
  for (int round = 0; round < 5; ++round) {
    const std::vector<PlannedWorker> plan = plan_workers(plan_rng);
    // The totals a fresh sum over the planned end state gives.
    ExactResources want_capacity;
    ExactResources want_committed;
    for (const PlannedWorker& w : plan) {
      if (w.evicted) continue;
      want_capacity += ExactResources(w.capacity);
      for (std::size_t t = 0; t < w.allocs.size(); ++t) {
        if (!w.finishes[t]) want_committed += ExactResources(w.allocs[t]);
      }
    }
    ASSERT_FALSE(want_committed.is_zero());
    for (std::uint64_t order = 0; order < 12; ++order) {
      SCOPED_TRACE("round " + std::to_string(round) + " order " +
                   std::to_string(order));
      Applied a = apply_shuffled(plan, 1000 * static_cast<std::uint64_t>(round) +
                                           order);
      ASSERT_TRUE(a.pool.capacity_total() == want_capacity);
      ASSERT_TRUE(a.pool.committed_total() == want_committed);
      // Draining the pool in yet another order leaves exactly nothing.
      Rng drain(order);
      while (!a.running.empty()) {
        const std::size_t i = drain.uniform_int(0, a.running.size() - 1);
        const Applied::Live r = a.running[i];
        a.running.erase(a.running.begin() + static_cast<std::ptrdiff_t>(i));
        a.pool.finish(r.worker, r.task, r.alloc);
      }
      EXPECT_TRUE(a.pool.committed_total().is_zero());
      EXPECT_EQ(a.pool.committed_total().value(), ResourceVector{});
      EXPECT_TRUE(a.pool.capacity_total() == want_capacity);
    }
  }
}

// ----------------------------------------------------- checked entries

TEST(ExactResources, ConvertsExactlyAndFloorsBelowTheStep) {
  const ResourceVector v{0.1, 65536.0, 1234.5678, 3600.25};
  EXPECT_EQ(ExactResources(v).value(), v);
  // 2^-70 is below the 2^-64 step: floored to 0.
  EXPECT_TRUE(ExactResources(ResourceVector{0x1p-70, 0.0, 0.0}).is_zero());
  EXPECT_TRUE(ExactResources(ResourceVector{-0.0, 0.0, 0.0}).is_zero());
  const ExactResources big(ResourceVector{0x1p40, 0x1p40, 0x1p40, 0x1p40});
  EXPECT_TRUE(ExactResources::from_words(big.words()) == big);
}

TEST(ExactResources, RefusesWhatItCannotHold) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -1e-300, -1.0, 0x1p40 * 1.0000001}) {
    EXPECT_THROW((void)ExactResources(ResourceVector{1.0, 1.0, 1.0, bad}),
                 ExactRangeError)
        << bad;
  }
  // A sum that would leave the 128-bit range throws instead of wrapping.
  ExactResources sum;
  const ExactResources big(ResourceVector{0x1p40, 0.0, 0.0});
  EXPECT_THROW(
      {
        for (int i = 0; i < (1 << 24); ++i) sum += big;
      },
      ExactRangeError);
}

TEST(ExactResources, SimConfigRefusesCapacitiesWhereTheyEnter) {
  const auto wl = tora::workloads::make_workload("uniform", 1);
  auto alloc = tora::core::make_allocator("max_seen", 1);
  SimConfig big;
  big.worker_capacity = ResourceVector{16.0, 1e13, 65536.0};
  EXPECT_THROW(Simulation(wl.tasks, alloc, big), ExactRangeError);

  SimConfig wide;  // each worker fits, the largest pool does not
  wide.worker_capacity = ResourceVector{16.0, 0x1p40, 65536.0};
  wide.churn.max_workers = 1u << 23;
  EXPECT_THROW(Simulation(wl.tasks, alloc, wide), ExactRangeError);

  SimConfig profiles;
  profiles.worker_profiles = {{1.0, kCap}, {1.0, {16.0, 65536.0, -4.0}}};
  try {
    Simulation s(wl.tasks, alloc, profiles);
    ADD_FAILURE() << "a negative profile capacity was accepted";
  } catch (const ExactRangeError& e) {
    EXPECT_NE(std::string(e.what()).find("worker_profiles[1]"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExactResources, CliRefusesAPoolTheTotalsCannotHold) {
  EXPECT_NO_THROW(tora::cli::parse_options({"grid", "--workers", "1000000"}));
  EXPECT_THROW(
      tora::cli::parse_options({"grid", "--workers", "1000000000000000"}),
      ExactRangeError);
}

// ------------------------------------------------------------ snapshots

class PoolTotalsSnapshot : public ::testing::Test {
 protected:
  PoolTotalsSnapshot() {
    pool_.add_worker();
    pool_.add_worker(ResourceVector{8.0, 1000.5, 2000.25});
    pool_.start(0, 10, ResourceVector{0.1, 100.3, 7.7});
    pool_.start(1, 11, ResourceVector{2.5, 500.1, 9.9});
    pool_.start(0, 12, ResourceVector{1.1, 10.0, 1.0});
    tora::util::ByteWriter w;
    pool_.save_state(w);
    body_ = w.take();
  }

  static void load(const std::string& body, WorkerPool& into) {
    tora::core::snapshot::from_bytes(body, into);
  }

  /// The offset of the `field` leaf number `nth` in the body.
  std::size_t offset_of(const char* field, std::size_t nth = 0) const {
    WorkerPool scratch(kCap);
    const auto leaves = tora::core::snapshot::trace(
        body_, [&](tora::util::ByteReader& r) { scratch.load_state(r); });
    for (const auto& leaf : leaves) {
      if (leaf.field == field && nth-- == 0) return leaf.offset;
    }
    ADD_FAILURE() << "no leaf " << field;
    return 0;
  }

  WorkerPool pool_{kCap};
  std::string body_;
};

TEST_F(PoolTotalsSnapshot, RoundTripKeepsTheExactTotals) {
  WorkerPool loaded(kCap);
  load(body_, loaded);
  EXPECT_TRUE(loaded.committed_total() == pool_.committed_total());
  EXPECT_TRUE(loaded.capacity_total() == pool_.capacity_total());
  // The loaded pool carries on and still drains to exactly 0.
  loaded.finish(0, 10, ResourceVector{0.1, 100.3, 7.7});
  loaded.finish(1, 11, ResourceVector{2.5, 500.1, 9.9});
  loaded.finish(0, 12, ResourceVector{1.1, 10.0, 1.0});
  EXPECT_TRUE(loaded.committed_total().is_zero());
}

TEST_F(PoolTotalsSnapshot, RefusesTheFloatCapacitySumLayout) {
  // What a build that saved a float capacity sum after the workers wrote:
  // the same workers, then four doubles.
  std::string old = body_.substr(0, offset_of("exact_format"));
  tora::util::ByteWriter sum;
  for (double v : {24.0, 66536.5, 67536.25, 0.0}) sum.f64(v);
  old += sum.take();
  WorkerPool loaded(kCap);
  try {
    load(old, loaded);
    ADD_FAILURE() << "the old layout loaded";
  } catch (const tora::core::SnapshotError& e) {
    EXPECT_EQ(e.section(), "WorkerPool");
    EXPECT_EQ(e.field(), "exact_format");
  }
}

TEST_F(PoolTotalsSnapshot, RefusesANegativeOrIdleLeftoverCommitment) {
  // Worker 0's cores word pair: the high word's sign bit makes it negative.
  std::string negative = body_;
  const std::size_t high = offset_of("exact_committed", 2);
  negative[high + 7] = static_cast<char>(0x80);
  WorkerPool a(kCap);
  EXPECT_THROW(load(negative, a), tora::core::SnapshotError);

  // An idle worker may not carry a commitment.
  WorkerPool idle(kCap);
  idle.add_worker();
  tora::util::ByteWriter w;
  idle.save_state(w);
  std::string body = w.take();
  body[body.size() - 64] = 1;  // the lowest word of its cores
  WorkerPool b(kCap);
  EXPECT_THROW(load(body, b), tora::core::SnapshotError);
}

}  // namespace
