// Tests for scheduler placement policies (first/best/worst fit) and
// heterogeneous worker profiles.

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sim/simulation.hpp"
#include "sim/worker_pool.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::sim::Placement;
using tora::sim::SimConfig;
using tora::sim::Simulation;
using tora::sim::WorkerPool;

constexpr ResourceVector kCap{16.0, 65536.0, 65536.0, 0.0};

TEST(Placement, BestFitPicksTightestWorker) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  const auto id1 = pool.add_worker();
  (void)id0;
  // Load worker 1 so it has less slack.
  pool.start(id1, 1, ResourceVector{12.0, 50000.0, 50000.0});
  const ResourceVector alloc{2.0, 1000.0, 1000.0};
  EXPECT_EQ(*pool.find_worker_for(alloc, Placement::BestFit), id1);
  EXPECT_EQ(*pool.find_worker_for(alloc, Placement::WorstFit), id0);
  EXPECT_EQ(*pool.find_worker_for(alloc, Placement::FirstFit), id0);
}

TEST(Placement, BestFitSkipsWorkersThatCannotFit) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  const auto id1 = pool.add_worker();
  pool.start(id0, 1, ResourceVector{15.5, 100.0, 100.0});
  // id0 is tighter but cannot fit 2 cores.
  const ResourceVector alloc{2.0, 100.0, 100.0};
  EXPECT_EQ(*pool.find_worker_for(alloc, Placement::BestFit), id1);
}

TEST(Placement, TieBreaksByAscendingId) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  pool.add_worker();
  const ResourceVector alloc{1.0, 1.0, 1.0};
  // Identical slack everywhere: lowest id wins for every policy.
  for (Placement p : {Placement::FirstFit, Placement::BestFit,
                      Placement::WorstFit}) {
    EXPECT_EQ(*pool.find_worker_for(alloc, p), id0);
  }
}

TEST(Profiles, HeterogeneousAddWorker) {
  WorkerPool pool(kCap);
  const ResourceVector small{4.0, 8192.0, 8192.0};
  const auto big = pool.add_worker();
  const auto little = pool.add_worker(small);
  EXPECT_DOUBLE_EQ(pool.worker(big).capacity().cores(), 16.0);
  EXPECT_DOUBLE_EQ(pool.worker(little).capacity().cores(), 4.0);
  // An 8-core allocation only fits the big worker.
  const auto chosen = pool.find_worker_for(ResourceVector{8.0, 100.0, 100.0});
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, big);
}

std::vector<TaskSpec> small_tasks(std::size_t n) {
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = i;
    t.category = "c";
    t.demand = ResourceVector{1.0, 500.0, 100.0};
    t.duration_s = 10.0;
    t.peak_fraction = 0.5;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

TEST(Profiles, SimulationWithMixedPoolCompletes) {
  const auto tasks = small_tasks(80);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 2);
  SimConfig cfg;
  cfg.churn.enabled = false;
  cfg.churn.initial_workers = 6;
  cfg.worker_profiles = {
      {2.0, ResourceVector{4.0, 8192.0, 8192.0}},
      {1.0, kCap},
  };
  Simulation sim(tasks, alloc, cfg);
  const auto r = sim.run();
  EXPECT_EQ(r.tasks_completed, 80u);
  EXPECT_EQ(r.tasks_fatal, 0u);
}

TEST(Profiles, RejectsNonPositiveWeight) {
  const auto tasks = small_tasks(1);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 2);
  SimConfig cfg;
  cfg.churn.enabled = false;
  cfg.churn.initial_workers = 1;
  cfg.worker_profiles = {{0.0, kCap}};
  EXPECT_THROW(Simulation(tasks, alloc, cfg), std::invalid_argument);
}

TEST(Profiles, DeterministicProfileAssignment) {
  const auto tasks = small_tasks(40);
  SimConfig cfg;
  cfg.churn.enabled = false;
  cfg.churn.initial_workers = 8;
  cfg.seed = 5;
  cfg.worker_profiles = {
      {1.0, ResourceVector{8.0, 16384.0, 16384.0}},
      {1.0, kCap},
  };
  auto a1 = tora::core::make_allocator(tora::core::kMaxSeen, 2);
  auto a2 = tora::core::make_allocator(tora::core::kMaxSeen, 2);
  Simulation s1(tasks, a1, cfg);
  Simulation s2(tasks, a2, cfg);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
}

TEST(Placement, EndToEndAcrossPlacements) {
  // All three placements complete the same workload with identical
  // ground-truth consumption (placement cannot change what tasks consume).
  const auto tasks = small_tasks(60);
  double consumption[3];
  int i = 0;
  for (Placement p : {Placement::FirstFit, Placement::BestFit,
                      Placement::WorstFit}) {
    auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 2);
    SimConfig cfg;
    cfg.churn.enabled = false;
    cfg.churn.initial_workers = 4;
    cfg.placement = p;
    Simulation sim(tasks, alloc, cfg);
    const auto r = sim.run();
    EXPECT_EQ(r.tasks_completed, 60u);
    consumption[i++] =
        r.accounting.breakdown(tora::core::ResourceKind::MemoryMB).consumption;
  }
  EXPECT_DOUBLE_EQ(consumption[0], consumption[1]);
  EXPECT_DOUBLE_EQ(consumption[1], consumption[2]);
}

}  // namespace
