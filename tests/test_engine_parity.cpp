// Engine differential harness: the calendar queue must be invisible.
// For every paper workflow — plus a chaos scenario stacking storms and the
// resilience layer on heavy churn — a run driven by the calendar engine
// must pop the bit-identical event sequence the legacy binary heap pops,
// reach the identical final serialized state, and report the identical
// results. Snapshots must also cross over: a run saved under one engine
// resumes under the other without a bit of divergence.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::TaskSpec;
using tora::sim::Event;
using tora::sim::QueueEngine;
using tora::sim::SimConfig;
using tora::sim::SimObserver;
using tora::sim::SimResult;
using tora::sim::Simulation;
using tora::util::ByteReader;
using tora::util::ByteWriter;

/// Records the raw pop-order event stream as an FNV-1a fingerprint plus a
/// count — compact enough to compare hundred-thousand-event runs without
/// storing them.
class EventFingerprint final : public SimObserver {
 public:
  void on_event(const Event& e) override {
    mix(static_cast<std::uint64_t>(e.time * 1e6));
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.a);
    mix(e.b);
    mix(e.epoch);
    mix(e.seq);
    ++count_;
  }
  std::uint64_t hash() const noexcept { return hash_; }
  std::uint64_t count() const noexcept { return count_; }

 private:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
};

struct RunCapture {
  std::uint64_t event_hash = 0;
  std::uint64_t event_count = 0;
  std::string final_state;
  SimResult result;
};

RunCapture run_captured(const std::vector<TaskSpec>& tasks,
                        const std::string& policy, SimConfig cfg,
                        QueueEngine engine) {
  cfg.engine = engine;
  auto allocator = tora::core::make_allocator(policy, 7);
  Simulation sim(tasks, allocator, cfg);
  EventFingerprint fp;
  sim.set_observer(&fp);
  RunCapture cap;
  cap.result = sim.run();
  cap.event_hash = fp.hash();
  cap.event_count = fp.count();
  ByteWriter w;
  sim.save_state(w);
  cap.final_state = w.take();
  return cap;
}

void expect_identical(const RunCapture& heap, const RunCapture& cal,
                      const std::string& label) {
  EXPECT_EQ(heap.event_count, cal.event_count) << label;
  EXPECT_EQ(heap.event_hash, cal.event_hash) << label;
  EXPECT_EQ(heap.final_state, cal.final_state) << label;
  EXPECT_DOUBLE_EQ(heap.result.makespan_s, cal.result.makespan_s) << label;
  EXPECT_EQ(heap.result.tasks_completed, cal.result.tasks_completed) << label;
  EXPECT_EQ(heap.result.tasks_fatal, cal.result.tasks_fatal) << label;
  EXPECT_EQ(heap.result.evictions, cal.result.evictions) << label;
  EXPECT_EQ(heap.result.total_joins, cal.result.total_joins) << label;
  EXPECT_EQ(heap.result.total_leaves, cal.result.total_leaves) << label;
  EXPECT_EQ(heap.result.events_processed, cal.result.events_processed)
      << label;
  EXPECT_EQ(heap.result.committed_integral, cal.result.committed_integral)
      << label;
  EXPECT_EQ(heap.result.capacity_integral, cal.result.capacity_integral)
      << label;
  EXPECT_GT(heap.result.events_processed, 0u) << label;
}

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

// ------------------------------------------- all seven paper workflows

class EngineParity : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineParity, CalendarMatchesHeapBitForBit) {
  const tora::workloads::Workload wl =
      tora::workloads::make_workload(GetParam(), 7);
  const SimConfig cfg = paper_config();
  const RunCapture heap =
      run_captured(wl.tasks, "greedy_bucketing", cfg, QueueEngine::Heap);
  const RunCapture cal =
      run_captured(wl.tasks, "greedy_bucketing", cfg, QueueEngine::Calendar);
  expect_identical(heap, cal, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkflows, EngineParity,
    ::testing::ValuesIn(tora::workloads::all_workflow_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------ chaos scenario

// Storms, adaptive deadlines, speculation and storm-triggered degraded mode
// on top of fast churn: the full stack of event kinds (StormBegin/End,
// SpecCheck/SpecFinish, DeadlineKill) with epoch-invalidated stale events —
// the worst case for any ordering bug.
TEST(EngineParityChaos, StormAndResilienceRunsMatchBitForBit) {
  const tora::workloads::Workload wl =
      tora::workloads::make_workload("bimodal", 21);
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
  const RunCapture heap =
      run_captured(wl.tasks, "exhaustive_bucketing", cfg, QueueEngine::Heap);
  const RunCapture cal = run_captured(wl.tasks, "exhaustive_bucketing", cfg,
                                      QueueEngine::Calendar);
  expect_identical(heap, cal, "chaos");
  EXPECT_GT(heap.result.evictions, 0u);  // the scenario actually stormed
}

// ------------------------------------------- cross-engine snapshot resume

// A snapshot taken mid-run under one engine must restore into a simulation
// configured with the OTHER engine and finish bit-identical to the donor
// engine's uninterrupted run.
TEST(EngineParitySnapshot, SnapshotsResumeAcrossEngines) {
  const tora::workloads::Workload wl =
      tora::workloads::make_workload("uniform", 7);
  const SimConfig base = paper_config();

  SimConfig heap_cfg = base;
  heap_cfg.engine = QueueEngine::Heap;
  auto ref_alloc = tora::core::make_allocator("greedy_bucketing", 7);
  Simulation reference(wl.tasks, ref_alloc, heap_cfg);
  (void)reference.run();
  ByteWriter wref;
  reference.save_state(wref);
  const std::string want = wref.take();

  const struct {
    QueueEngine donor;
    QueueEngine resumer;
  } directions[] = {{QueueEngine::Heap, QueueEngine::Calendar},
                    {QueueEngine::Calendar, QueueEngine::Heap}};
  for (const auto& dir : directions) {
    for (const int prefix : {5, 60}) {
      SimConfig donor_cfg = base;
      donor_cfg.engine = dir.donor;
      auto da = tora::core::make_allocator("greedy_bucketing", 7);
      Simulation donor(wl.tasks, da, donor_cfg);
      for (int i = 0; i < prefix && donor.step(); ++i) {
      }
      ByteWriter w;
      donor.save_state(w);
      const std::string saved = w.take();

      SimConfig resume_cfg = base;
      resume_cfg.engine = dir.resumer;
      auto ra = tora::core::make_allocator("greedy_bucketing", 7);
      Simulation resumed(wl.tasks, ra, resume_cfg);
      ByteReader r(saved);
      resumed.load_state(r);
      EXPECT_TRUE(r.done());
      if (!resumed.core().done()) (void)resumed.run();
      ByteWriter wg;
      resumed.save_state(wg);
      EXPECT_EQ(wg.take(), want)
          << "donor engine " << static_cast<int>(dir.donor) << " prefix "
          << prefix;
    }
  }
}

}  // namespace
