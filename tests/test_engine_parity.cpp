// The simulator's pop order, checked without a second engine. The calendar
// queue replaced a binary heap (tests/oracles/heap_queue.hpp), which pops
// every pending event in ascending (time, seq) order. A run pops exactly the
// heap's sequence for the same pushes iff
//   1. its pops strictly ascend in (time, seq);
//   2. every event it pushed (seqs 0 .. next_seq - 1) is popped or left
//      pending exactly once;
//   3. every event left pending orders after the last pop.
// An event skipped while it was the earliest would either pop later, out of
// order, or stay pending behind the last pop. (Handlers push at or after the
// current time, so a correct queue never holds an event below its last pop.)
// A snapshot taken mid-run must also resume to the uninterrupted run's final
// state, bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"
#include "straggler_scenario.hpp"
#include "util/bytes.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::TaskSpec;
using tora::sim::Event;
using tora::sim::SimConfig;
using tora::sim::SimObserver;
using tora::sim::SimResult;
using tora::sim::Simulation;
using tora::util::ByteReader;
using tora::util::ByteWriter;

/// Records the pop sequence and checks conditions 1-3 against it.
class PopOrderOracle final : public SimObserver {
 public:
  void on_event(const Event& e) override {
    if (!popped_.empty() && !tora::sim::event_before(last_, e)) {
      ++out_of_order_;
    }
    last_ = e;
    popped_.push_back(e.seq);
  }

  std::size_t pops() const noexcept { return popped_.size(); }

  /// Conditions 1-3, given what the finished run left queued.
  void expect_exact(const Simulation& sim) const {
    EXPECT_EQ(out_of_order_, 0u);
    ByteWriter w;
    sim.events().save_state(w);
    ByteReader r(w.bytes());
    std::uint64_t next_seq = 0;
    const std::vector<Event> pending =
        tora::sim::detail::load_events_canonical(r, next_seq);
    std::vector<int> seen(next_seq, 0);
    for (std::uint64_t seq : popped_) {
      ASSERT_LT(seq, next_seq);
      ++seen[seq];
    }
    for (const Event& e : pending) {
      ++seen[e.seq];
      if (!popped_.empty()) {
        EXPECT_TRUE(tora::sim::event_before(last_, e))
            << "event " << e.seq << " at " << e.time << " left behind";
      }
    }
    std::size_t not_once = 0;
    for (int n : seen) not_once += n != 1;
    EXPECT_EQ(not_once, 0u) << "of " << next_seq << " pushes";
  }

 private:
  std::vector<std::uint64_t> popped_;
  Event last_;
  std::size_t out_of_order_ = 0;
};

SimConfig paper_config() {
  SimConfig cfg;
  cfg.churn.initial_workers = 12;
  cfg.churn.min_workers = 8;
  cfg.churn.max_workers = 20;
  cfg.churn.mean_interarrival_s = 60.0;
  cfg.churn.mean_lifetime_s = 900.0;
  cfg.submit_interval_s = 5.0;
  cfg.seed = 13;
  return cfg;
}

// Storms, adaptive deadlines, speculation and storm-triggered degraded mode
// on top of fast churn: every event kind (StormBegin/End, SpecCheck,
// DeadlineKill) with epoch-invalidated stale events. The straggler scenario
// (straggler_scenario.hpp) adds duplicates that are launched, promoted and
// re-armed.
SimConfig chaos_config() {
  SimConfig cfg = paper_config();
  cfg.churn.mean_interarrival_s = 20.0;
  cfg.churn.mean_lifetime_s = 240.0;
  cfg.churn.storm_interval_s = 400.0;
  cfg.churn.storm_duration_s = 80.0;
  cfg.churn.storm_evict_fraction = 0.5;
  cfg.resilience.deadlines = true;
  cfg.resilience.speculation = true;
  cfg.resilience.storm_control = true;
  cfg.seed = 99;
  return cfg;
}

SimResult run_checked(const std::vector<TaskSpec>& tasks,
                      const std::string& policy, const SimConfig& cfg) {
  auto allocator = tora::core::make_allocator(policy, 7);
  Simulation sim(tasks, allocator, cfg);
  PopOrderOracle oracle;
  sim.set_observer(&oracle);
  const SimResult result = sim.run();
  oracle.expect_exact(sim);
  EXPECT_EQ(oracle.pops(), result.events_processed);
  EXPECT_GT(result.events_processed, 0u);
  return result;
}

// ------------------------------------------- all seven paper workflows

class EngineParity : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineParity, CalendarMatchesHeapBitForBit) {
  const tora::workloads::Workload wl =
      tora::workloads::make_workload(GetParam(), 7);
  const SimResult r = run_checked(wl.tasks, "greedy_bucketing", paper_config());
  EXPECT_EQ(r.tasks_completed + r.tasks_fatal, wl.tasks.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkflows, EngineParity,
    ::testing::ValuesIn(tora::workloads::all_workflow_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------ chaos scenario

TEST(EngineParityChaos, StormAndResilienceRunsMatchBitForBit) {
  const tora::workloads::Workload wl =
      tora::workloads::make_workload("bimodal", 21);
  const SimResult chaos =
      run_checked(wl.tasks, "exhaustive_bucketing", chaos_config());
  EXPECT_GT(chaos.evictions, 0u);
  EXPECT_GT(chaos.resilience.storms_entered, 0u);
  EXPECT_GT(chaos.resilience.dispatches_held, 0u);
  // The straggler scenario speculates under storms and degraded mode:
  // duplicates launched, promoted (and re-armed) and cancelled.
  const SimResult spec =
      run_checked(tora::testing::straggler_workload(300), "max_seen",
                  tora::testing::straggler_config(1, true));
  EXPECT_GT(spec.resilience.storms_entered, 0u);
  EXPECT_GT(spec.resilience.speculations_promoted, 0u);
  EXPECT_GT(spec.resilience.speculations_cancelled, 0u);
  EXPECT_GT(spec.resilience.adaptive_deadlines_used, 0u);
}

// ------------------------------------------------------ snapshot resume

// A snapshot taken mid-run restores into a fresh simulation that finishes
// bit-identical to the uninterrupted run: on a calm paper workflow, on the
// chaos scenario and on the straggler scenario (live duplicates, storms and
// deadlines in flight).
TEST(EngineParitySnapshot, SnapshotsResumeCalendarToCalendar) {
  const struct {
    const char* workflow;
    std::uint64_t workload_seed;
    const char* policy;
    SimConfig cfg;
  } runs[] = {{"uniform", 7, "greedy_bucketing", paper_config()},
              {"bimodal", 21, "exhaustive_bucketing", chaos_config()},
              {"straggly", 0, "max_seen",
               tora::testing::straggler_config(1, true)}};
  for (const auto& run : runs) {
    tora::workloads::Workload wl;
    if (run.workload_seed == 0) {
      wl.tasks = tora::testing::straggler_workload(300);
    } else {
      wl = tora::workloads::make_workload(run.workflow, run.workload_seed);
    }
    auto ref_alloc = tora::core::make_allocator(run.policy, 7);
    Simulation reference(wl.tasks, ref_alloc, run.cfg);
    (void)reference.run();
    ByteWriter wref;
    reference.save_state(wref);
    const std::string want = wref.take();

    for (const int prefix : {5, 60, 400}) {
      auto da = tora::core::make_allocator(run.policy, 7);
      Simulation donor(wl.tasks, da, run.cfg);
      for (int i = 0; i < prefix && donor.step(); ++i) {
      }
      ByteWriter w;
      donor.save_state(w);
      const std::string saved = w.take();

      auto ra = tora::core::make_allocator(run.policy, 7);
      Simulation resumed(wl.tasks, ra, run.cfg);
      ByteReader r(saved);
      resumed.load_state(r);
      EXPECT_TRUE(r.done());
      if (!resumed.core().done()) (void)resumed.run();
      ByteWriter wg;
      resumed.save_state(wg);
      EXPECT_EQ(wg.take(), want)
          << run.workflow << " prefix " << prefix;
    }
  }
}

}  // namespace
