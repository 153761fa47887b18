// Differential parity between the two runtimes driving the shared
// core::lifecycle::DispatchCore, plus focused coverage of the
// revision-based allocation-cache invalidation rules.
//
// Parity setup: a dependency-free workload whose allocations always occupy
// more than half a worker's cores, run on a single worker — execution is
// fully serialized, so the discrete-event simulator (churn disabled) and
// the protocol manager (no faults) drive the machine through the SAME
// sequence of dispatch/complete/fail transitions. With identically-seeded
// deterministic allocators the two runs must then agree bit-for-bit:
// completion counts, per-category waste breakdowns, and every task's
// retry sequence (the proto worker and the simulator share the
// sim::attempt_runtime enforcement model, so even failure runtimes match).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/registry.hpp"
#include "core/resilience/resilience.hpp"
#include "core/task.hpp"
#include "proto/manager.hpp"
#include "proto/worker_agent.hpp"
#include "scripted_driver.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::WasteBreakdown;
using tora::core::lifecycle::DispatchConfig;
using tora::core::lifecycle::DispatchCore;
using tora::core::lifecycle::TaskPhase;
using tora::tests::ScriptedDriver;

constexpr ResourceVector kCapacity{16.0, 65536.0, 65536.0, 0.0};

/// Dependency-free, serialization-friendly workload: every demand needs
/// more than half the worker's cores, and per-category memory demands climb
/// so max_seen under-predicts and the retry path is exercised.
std::vector<TaskSpec> parity_workload(std::size_t n) {
  const std::vector<std::string> cats = {"heavy_a", "heavy_b", "heavy_c"};
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = cats[i % cats.size()];
    tasks[i].demand = ResourceVector{
        9.0 + static_cast<double>(i % 3),
        20000.0 + 3000.0 * static_cast<double>(i % 5),
        4000.0 + 500.0 * static_cast<double>(i % 4), 0.0};
    tasks[i].duration_s = 10.0 + static_cast<double>(i % 7);
  }
  return tasks;
}

tora::sim::SimConfig serial_sim_config() {
  tora::sim::SimConfig cfg;
  cfg.worker_capacity = kCapacity;
  cfg.churn.enabled = false;
  cfg.churn.initial_workers = 1;
  return cfg;
}

/// One manager + one fault-free in-process worker, pumped to completion
/// (ProtocolRuntime without the private manager — the test needs core()).
void run_proto(std::span<const TaskSpec> tasks,
               tora::core::TaskAllocator& alloc,
               tora::proto::ProtocolManager& manager,
               tora::proto::WorkerAgent& agent) {
  agent.announce();
  manager.start();
  for (int round = 0; round < 1000000 && !manager.done(); ++round) {
    manager.pump();
    agent.pump();
  }
  ASSERT_TRUE(manager.done());
  (void)tasks;
  (void)alloc;
}

void expect_breakdown_eq(const WasteBreakdown& a, const WasteBreakdown& b) {
  EXPECT_DOUBLE_EQ(a.consumption, b.consumption);
  EXPECT_DOUBLE_EQ(a.allocation, b.allocation);
  EXPECT_DOUBLE_EQ(a.internal_fragmentation, b.internal_fragmentation);
  EXPECT_DOUBLE_EQ(a.failed_allocation, b.failed_allocation);
}

TEST(DispatchParity, SimAndProtoAgreeBitForBit) {
  const auto tasks = parity_workload(30);

  auto sim_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::Simulation sim(tasks, sim_alloc, serial_sim_config());
  const auto sim_result = sim.run();
  const DispatchCore* sim_core = &sim.core();

  auto proto_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  auto link = std::make_shared<tora::proto::DuplexLink>();
  tora::proto::ProtocolManager manager(tasks, proto_alloc, {link});
  tora::proto::WorkerAgent agent(0, kCapacity, tasks, link);
  run_proto(tasks, proto_alloc, manager, agent);
  const DispatchCore& proto_core = manager.core();

  // Completion counts.
  EXPECT_EQ(sim_result.tasks_completed, tasks.size());
  EXPECT_EQ(sim_result.tasks_fatal, 0u);
  EXPECT_EQ(manager.tasks_completed(), sim_result.tasks_completed);
  EXPECT_EQ(manager.tasks_fatal(), sim_result.tasks_fatal);

  // Retry sequences: every task attempted the same allocations for the
  // same durations in both runtimes (AttemptLog compares exactly).
  std::size_t total_retries = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto& se = sim_core->entry(t);
    const auto& pe = proto_core.entry(t);
    EXPECT_EQ(se.phase, TaskPhase::Done);
    EXPECT_EQ(pe.phase, TaskPhase::Done);
    EXPECT_EQ(se.attempts, pe.attempts) << "task " << t;
    EXPECT_EQ(se.failed_attempts, pe.failed_attempts) << "task " << t;
    total_retries += se.failed_attempts.size();
  }
  // The workload must actually exercise the retry path, or this parity
  // claim is vacuous.
  EXPECT_GT(total_retries, 0u);

  // Per-category waste, every resource and term.
  const auto& sa = sim_result.accounting;
  const auto& pa = manager.accounting();
  ASSERT_EQ(sa.per_category(), pa.per_category());
  for (const auto& [cat, count] : sa.per_category()) {
    EXPECT_GT(count, 0u);
    for (ResourceKind k : tora::core::kManagedResources) {
      expect_breakdown_eq(sa.breakdown(cat, k), pa.breakdown(cat, k));
    }
  }
  for (ResourceKind k : tora::core::kManagedResources) {
    expect_breakdown_eq(sa.breakdown(k), pa.breakdown(k));
    EXPECT_DOUBLE_EQ(sa.awe(k), pa.awe(k));
  }
  EXPECT_EQ(sa.total_attempts(), pa.total_attempts());
}

TEST(DispatchParity, ResilienceEnabledKeepsBitForBitParity) {
  // The churn-adaptive resilience layer gates every intervention on churn
  // evidence, so in the serialized fault-free setup an ENABLED layer must
  // leave both runtimes on the legacy trajectory: sim-with-resilience,
  // proto-with-resilience and the plain disabled run all agree bit-for-bit.
  const auto tasks = parity_workload(30);

  tora::core::resilience::ResilienceConfig res;
  res.deadlines = true;
  res.speculation = true;
  res.reliability = true;
  res.storm_control = true;
  res.min_records = 2;

  auto sim_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  auto sim_cfg = serial_sim_config();
  sim_cfg.resilience = res;
  tora::sim::Simulation sim(tasks, sim_alloc, sim_cfg);
  const auto sim_result = sim.run();

  auto proto_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::proto::LivenessConfig proto_cfg;
  proto_cfg.resilience = res;
  auto link = std::make_shared<tora::proto::DuplexLink>();
  tora::proto::ProtocolManager manager(tasks, proto_alloc, {link}, proto_cfg);
  tora::proto::WorkerAgent agent(0, kCapacity, tasks, link);
  run_proto(tasks, proto_alloc, manager, agent);

  // A third, resilience-OFF run pins the legacy trajectory.
  auto base_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::Simulation base(tasks, base_alloc, serial_sim_config());
  const auto base_result = base.run();

  EXPECT_EQ(sim_result.tasks_completed, tasks.size());
  EXPECT_EQ(manager.tasks_completed(), sim_result.tasks_completed);
  EXPECT_EQ(base_result.tasks_completed, sim_result.tasks_completed);
  EXPECT_EQ(sim_result.makespan_s, base_result.makespan_s);

  const auto& sa = sim_result.accounting;
  const auto& pa = manager.accounting();
  const auto& ba = base_result.accounting;
  for (ResourceKind k : tora::core::kManagedResources) {
    expect_breakdown_eq(sa.breakdown(k), pa.breakdown(k));
    expect_breakdown_eq(sa.breakdown(k), ba.breakdown(k));
    EXPECT_DOUBLE_EQ(sa.awe(k), pa.awe(k));
    EXPECT_DOUBLE_EQ(sa.awe(k), ba.awe(k));
    // No churn evidence -> no speculation -> the column stays empty.
    EXPECT_DOUBLE_EQ(sa.breakdown(k).speculative, 0.0);
    EXPECT_DOUBLE_EQ(pa.breakdown(k).speculative, 0.0);
  }
  EXPECT_EQ(sa.total_attempts(), pa.total_attempts());
  EXPECT_EQ(sa.total_attempts(), ba.total_attempts());

  // And zero resilience interventions on either side.
  EXPECT_EQ(sim_result.resilience, tora::core::ResilienceCounters{});
  EXPECT_EQ(manager.resilience(), tora::core::ResilienceCounters{});
}

TEST(DispatchParity, GreedyBucketingCompletionCountsAgree) {
  // The bucketing allocators sample buckets from a seeded stream, so both
  // sides see identical draws only while the record sequences stay aligned
  // — which the serialized setup guarantees. Completion counts and task
  // totals must agree end to end.
  const auto tasks = parity_workload(24);

  auto sim_alloc = tora::core::make_allocator(tora::core::kGreedyBucketing, 11);
  tora::sim::Simulation sim(tasks, sim_alloc, serial_sim_config());
  const auto sim_result = sim.run();

  auto proto_alloc =
      tora::core::make_allocator(tora::core::kGreedyBucketing, 11);
  auto link = std::make_shared<tora::proto::DuplexLink>();
  tora::proto::ProtocolManager manager(tasks, proto_alloc, {link});
  tora::proto::WorkerAgent agent(0, kCapacity, tasks, link);
  run_proto(tasks, proto_alloc, manager, agent);

  EXPECT_EQ(sim_result.tasks_completed, tasks.size());
  EXPECT_EQ(manager.tasks_completed(), sim_result.tasks_completed);
  EXPECT_EQ(manager.tasks_fatal(), sim_result.tasks_fatal);
  EXPECT_EQ(manager.accounting().task_count(),
            sim_result.accounting.task_count());
}

// ---------------------------------------------------------------------------
// Revision-based allocation-cache invalidation (Fig. 3a: queued tasks ask
// the bucketing manager again at dispatch when new records arrived; retry
// escalations are never re-requested).

TEST(DispatchCoreRevision, QueuedFirstAttemptReRequestedAfterCompletion) {
  // Two same-category tasks, one placement slot: task 1's allocation is
  // cached while task 0 runs (whole-machine exploration at revision 0).
  // After task 0's record the prediction shrinks, and task 1 must dispatch
  // with the NEW allocation, not the cached one.
  std::vector<TaskSpec> tasks(2);
  for (std::size_t i = 0; i < 2; ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = ResourceVector{2.0, 300.0, 100.0, 0.0};
    tasks[i].duration_s = 5.0;
  }
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  DispatchCore core(tasks, alloc, DispatchConfig{});
  core.start();

  std::vector<std::pair<std::uint64_t, ResourceVector>> placed;
  bool slot_busy = false;
  const auto place = [&](std::uint64_t, const ResourceVector&)
      -> std::optional<std::uint64_t> {
    if (slot_busy) return std::nullopt;
    return 0;
  };
  const auto commit = [&](std::uint64_t task, std::uint64_t,
                          const ResourceVector& a) {
    slot_busy = true;
    placed.emplace_back(task, a);
  };
  ScriptedDriver driver(place, commit);

  core.dispatch_pass(driver);
  ASSERT_EQ(placed.size(), 1u);
  EXPECT_EQ(placed[0].first, 0u);
  // Whole-machine exploration for the first attempt.
  EXPECT_DOUBLE_EQ(placed[0].second.cores(), 16.0);
  // Task 1 was popped, allocated (cached at revision 0), and requeued.
  EXPECT_TRUE(core.entry(1).has_alloc);
  EXPECT_DOUBLE_EQ(core.entry(1).alloc.cores(), 16.0);

  // Task 0 completes; its record moves the allocator's revision.
  core.complete(0, tasks[0].demand, tasks[0].duration_s);
  slot_busy = false;

  core.dispatch_pass(driver);
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_EQ(placed[1].first, 1u);
  // Re-requested: max_seen now predicts from task 0's record (cores width
  // 1 -> 2.0), not the stale whole-machine exploration allocation.
  EXPECT_DOUBLE_EQ(placed[1].second.cores(), 2.0);
  EXPECT_LT(placed[1].second.memory_mb(), 65536.0);
}

TEST(DispatchCoreRevision, RetryAllocationsAreNeverInvalidated) {
  // Task 0's first attempt fails; the escalated retry allocation must
  // survive later revision bumps (task 1's completion) unchanged.
  std::vector<TaskSpec> tasks(2);
  tasks[0].id = 0;
  tasks[0].category = "c";
  tasks[0].demand = ResourceVector{2.0, 900.0, 100.0, 0.0};
  tasks[0].duration_s = 5.0;
  tasks[1].id = 1;
  tasks[1].category = "c";
  tasks[1].demand = ResourceVector{2.0, 450.0, 100.0, 0.0};
  tasks[1].duration_s = 5.0;

  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  // Seed one record so the category is out of exploration and predicts
  // 500 MB (900 would exceed it -> the retry path).
  alloc.record_completion("c", ResourceVector{2.0, 400.0, 100.0, 0.0}, 1.0);

  DispatchCore core(tasks, alloc, DispatchConfig{});
  core.start();
  std::vector<std::pair<std::uint64_t, ResourceVector>> placed;
  const auto place = [&](std::uint64_t,
                         const ResourceVector&) -> std::optional<std::uint64_t> {
    return 0;  // infinite capacity: everything places
  };
  const auto commit = [&](std::uint64_t task, std::uint64_t,
                          const ResourceVector& a) {
    placed.emplace_back(task, a);
  };
  ScriptedDriver driver(place, commit);

  core.dispatch_pass(driver);
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_DOUBLE_EQ(placed[0].second.memory_mb(), 500.0);

  // Task 0 is killed on memory; the retry escalates beyond the failure.
  const auto verdict = core.fail_attempt(
      0, 3.5, tora::core::resource_bit(ResourceKind::MemoryMB));
  EXPECT_EQ(verdict, DispatchCore::RetryVerdict::Requeued);
  const ResourceVector retry_alloc = core.entry(0).alloc;
  EXPECT_GT(retry_alloc.memory_mb(), 500.0);
  const std::uint64_t revision_at_retry = alloc.revision();

  // Task 1 completes: the revision moves, and a fresh allocate() would
  // predict 500 MB again — NOT the escalated 1000 MB. If the retry cache
  // were (wrongly) invalidated, task 0 would re-fail at 500 forever.
  core.complete(1, tasks[1].demand, tasks[1].duration_s);
  ASSERT_NE(alloc.revision(), revision_at_retry);
  EXPECT_DOUBLE_EQ(alloc.allocate("c").memory_mb(), 500.0);

  core.dispatch_pass(driver);
  ASSERT_EQ(placed.size(), 3u);
  EXPECT_EQ(placed[2].first, 0u);
  // The cached retry allocation was used verbatim.
  EXPECT_EQ(placed[2].second, retry_alloc);
  EXPECT_TRUE(core.entry(0).is_retry);
}

TEST(DispatchCoreRevision, DeterministicVersionMovesOnlyWithItsCategory) {
  // Under max_seen (deterministic) a queued first attempt is re-requested
  // only when its own category completes; under exhaustive bucketing
  // (sampling) any completion re-requests it, so its redraws happen where
  // they always did.
  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "max_seen" : "exhaustive_bucketing");
    std::vector<TaskSpec> tasks(3);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].id = i;
      tasks[i].category = i == 1 ? "b" : "a";
      tasks[i].demand = ResourceVector{2.0, 300.0, 100.0, 0.0};
      tasks[i].duration_s = 5.0;
    }
    auto alloc = tora::core::make_allocator(
        deterministic ? tora::core::kMaxSeen : tora::core::kExhaustiveBucketing,
        1);
    // Both categories past exploration.
    for (int r = 0; r < 10; ++r) {
      for (const char* c : {"a", "b"}) {
        alloc.record_completion(c, ResourceVector{1.0, 200.0, 50.0, 0.0},
                                r + 1.0);
      }
    }
    struct Refreshes final : tora::core::lifecycle::RuntimeHooks {
      std::vector<std::uint64_t> ids;
      void allocation_committed(std::uint64_t id, const ResourceVector&,
                                bool is_retry) override {
        if (!is_retry) ids.push_back(id);
      }
    } hooks;
    DispatchCore core(tasks, alloc, DispatchConfig{}, hooks);
    core.start();
    bool slot_free = true;  // one slot: task 0 takes it in the first pass
    ScriptedDriver driver(
        [&](std::uint64_t, const ResourceVector&)
            -> std::optional<std::uint64_t> {
          if (!slot_free) return std::nullopt;
          return 0;
        },
        [&](std::uint64_t, std::uint64_t, const ResourceVector&) {
          slot_free = false;
        });
    core.dispatch_pass(driver);
    ASSERT_EQ(core.entry(0).phase, TaskPhase::Running);
    hooks.ids.clear();

    core.complete(0, ResourceVector{0.5, 150.0, 40.0, 0.0}, 5.0);
    core.dispatch_pass(driver);
    const std::vector<std::uint64_t> want =
        deterministic ? std::vector<std::uint64_t>{2}
                      : std::vector<std::uint64_t>{1, 2};
    EXPECT_EQ(hooks.ids, want);
  }
}

TEST(SimRevision, QueuedTaskPicksUpFreshPredictionAfterCompletion) {
  // End-to-end in the simulator: two same-category tasks on one worker.
  // Task 1 waits while task 0 runs under whole-machine exploration; after
  // task 0's completion bumps the revision, task 1's started attempt must
  // carry the shrunken post-record prediction.
  std::vector<TaskSpec> tasks(2);
  for (std::size_t i = 0; i < 2; ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = ResourceVector{2.0, 300.0, 100.0, 0.0};
    tasks[i].duration_s = 5.0;
  }
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);

  struct Recorder : tora::sim::SimObserver {
    std::vector<std::pair<std::uint64_t, ResourceVector>> attempts;
    void on_attempt_started(double, std::uint64_t task, std::uint64_t,
                            const ResourceVector& allocation) override {
      attempts.emplace_back(task, allocation);
    }
  } recorder;

  tora::sim::SimConfig cfg;
  cfg.worker_capacity = kCapacity;
  cfg.churn.enabled = false;
  cfg.churn.initial_workers = 1;
  tora::sim::Simulation sim(tasks, alloc, cfg);
  sim.set_observer(&recorder);
  const auto result = sim.run();

  EXPECT_EQ(result.tasks_completed, 2u);
  ASSERT_EQ(recorder.attempts.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.attempts[0].second.cores(), 16.0);
  EXPECT_DOUBLE_EQ(recorder.attempts[1].second.cores(), 2.0);
}

TEST(ProtoRevision, QueuedTaskPicksUpFreshPredictionAfterCompletion) {
  // The same invalidation observed through the protocol runtime: task 1's
  // post-completion allocation is the prediction from task 0's record. Its
  // demand exceeds that prediction, so the attempt fails and the logged
  // failed attempt pins down exactly what allocation it ran with — the
  // fresh prediction, not the cached whole machine (which would have
  // succeeded silently).
  std::vector<TaskSpec> tasks(2);
  tasks[0].id = 0;
  tasks[0].category = "c";
  tasks[0].demand = ResourceVector{2.0, 300.0, 100.0, 0.0};
  tasks[0].duration_s = 5.0;
  tasks[1].id = 1;
  tasks[1].category = "c";
  tasks[1].demand = ResourceVector{2.0, 700.0, 100.0, 0.0};
  tasks[1].duration_s = 5.0;

  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  auto link = std::make_shared<tora::proto::DuplexLink>();
  tora::proto::ProtocolManager manager(tasks, alloc, {link});
  tora::proto::WorkerAgent agent(0, kCapacity, tasks, link);
  agent.announce();
  manager.start();
  for (int round = 0; round < 10000 && !manager.done(); ++round) {
    manager.pump();
    agent.pump();
  }
  ASSERT_TRUE(manager.done());
  EXPECT_EQ(manager.tasks_completed(), 2u);

  const auto& e1 = manager.core().entry(1);
  ASSERT_EQ(e1.failed_attempts.size(), 1u);
  // 300 rounded up to the 500 bucket: the re-requested prediction.
  EXPECT_DOUBLE_EQ(e1.failed_attempts[0].alloc.memory_mb(), 500.0);
  EXPECT_TRUE(e1.is_retry);
}

}  // namespace
