#include "sim/worker.hpp"

#include <gtest/gtest.h>

#include "sim/worker_pool.hpp"

namespace {

using tora::core::ResourceVector;
using tora::sim::Worker;
using tora::sim::WorkerPool;

constexpr ResourceVector kCap{16.0, 65536.0, 65536.0, 0.0};

TEST(Worker, StartsEmpty) {
  const Worker w(0, kCap);
  EXPECT_EQ(w.running_count(), 0u);
  EXPECT_TRUE(w.can_fit(kCap));
  EXPECT_DOUBLE_EQ(w.free().cores(), 16.0);
}

TEST(Worker, CommitAndRelease) {
  Worker w(0, kCap);
  const ResourceVector a{4.0, 1000.0, 1000.0};
  w.start(1, a);
  EXPECT_EQ(w.running_count(), 1u);
  EXPECT_DOUBLE_EQ(w.free().cores(), 12.0);
  w.start(2, a);
  EXPECT_DOUBLE_EQ(w.free().cores(), 8.0);
  w.finish(1, a);
  EXPECT_DOUBLE_EQ(w.free().cores(), 12.0);
  w.finish(2, a);
  EXPECT_EQ(w.running_count(), 0u);
}

TEST(Worker, RejectsOvercommit) {
  Worker w(0, kCap);
  w.start(1, ResourceVector{10.0, 1000.0, 1000.0});
  EXPECT_FALSE(w.can_fit(ResourceVector{7.0, 100.0, 100.0}));
  EXPECT_THROW(w.start(2, ResourceVector{7.0, 100.0, 100.0}),
               std::logic_error);
}

TEST(Worker, RejectsDuplicateTask) {
  Worker w(0, kCap);
  w.start(1, ResourceVector{1.0, 1.0, 1.0});
  EXPECT_THROW(w.start(1, ResourceVector{1.0, 1.0, 1.0}), std::logic_error);
}

TEST(Worker, RejectsUnknownFinish) {
  Worker w(0, kCap);
  EXPECT_THROW(w.finish(9, ResourceVector{1.0, 1.0, 1.0}), std::logic_error);
}

TEST(Worker, ExactFitIsAllowed) {
  Worker w(0, kCap);
  w.start(1, kCap);
  EXPECT_FALSE(w.can_fit(ResourceVector{0.1, 0.0, 0.0}));
  w.finish(1, kCap);
  EXPECT_TRUE(w.can_fit(kCap));
}

TEST(Worker, RejectsNonPositiveCapacity) {
  EXPECT_THROW(Worker(0, ResourceVector{0.0, 1.0, 1.0}), std::invalid_argument);
}

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPool, AddAndRemove) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  const auto id1 = pool.add_worker();
  EXPECT_NE(id0, id1);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.alive(id0));
  pool.remove_worker(id0);
  EXPECT_FALSE(pool.alive(id0));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPool, IdsNeverReused) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  pool.remove_worker(id0);
  const auto id1 = pool.add_worker();
  EXPECT_NE(id0, id1);
}

TEST(WorkerPool, RemoveReturnsRunningTasks) {
  WorkerPool pool(kCap);
  const auto id = pool.add_worker();
  pool.start(id, 5, ResourceVector{1.0, 1.0, 1.0});
  pool.start(id, 6, ResourceVector{1.0, 1.0, 1.0});
  const auto victims = pool.remove_worker(id);
  EXPECT_EQ(victims.size(), 2u);
}

TEST(WorkerPool, FirstFitIsDeterministic) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  const auto id1 = pool.add_worker();
  (void)id1;
  const auto chosen = pool.find_worker_for(ResourceVector{1.0, 1.0, 1.0});
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, id0);
}

TEST(WorkerPool, FirstFitSkipsFullWorkers) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  const auto id1 = pool.add_worker();
  pool.start(id0, 1, kCap);
  const auto chosen = pool.find_worker_for(ResourceVector{1.0, 1.0, 1.0});
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, id1);
}

TEST(WorkerPool, NoFitReturnsNullopt) {
  WorkerPool pool(kCap);
  EXPECT_FALSE(pool.find_worker_for(ResourceVector{1.0, 1.0, 1.0}).has_value());
  const auto id = pool.add_worker();
  pool.start(id, 1, kCap);
  EXPECT_FALSE(pool.find_worker_for(ResourceVector{1.0, 1.0, 1.0}).has_value());
}

TEST(WorkerPool, RunningAttemptsAggregates) {
  WorkerPool pool(kCap);
  const auto id0 = pool.add_worker();
  const auto id1 = pool.add_worker();
  pool.start(id0, 1, ResourceVector{1.0, 1.0, 1.0});
  pool.start(id1, 2, ResourceVector{1.0, 1.0, 1.0});
  pool.start(id1, 3, ResourceVector{1.0, 1.0, 1.0});
  std::size_t running = 0;
  for (const auto& [id, w] : pool.workers()) running += w.running_count();
  EXPECT_EQ(running, 3u);
  EXPECT_EQ(pool.worker(id1).running_count(), 2u);
}

TEST(WorkerPool, UnknownWorkerThrows) {
  WorkerPool pool(kCap);
  EXPECT_THROW(pool.worker(99), std::logic_error);
  EXPECT_THROW(pool.remove_worker(99), std::logic_error);
}

}  // namespace
