// The speculation machine both runtimes own (core/resilience/speculation)
// against its reference model (tests/oracles/speculation_model.hpp): random
// launch, deliver and lose sequences over a changing set of live workers,
// compared after every step — the table, the three speculation counters of
// the runtime's ResilienceCounters, and every
// request the machine makes of its runtime: which copy is freed, each
// charge (the speculative column, the driver's only charge) with its task
// and scale, and each promotion. Inputs follow gtest's random seed (printed
// as "Randomizing tests' orders with a seed of N" under --gtest_shuffle and
// in every failure message; replay with --gtest_random_seed=N). CI's
// ASan+UBSan job soaks it with --gtest_shuffle --gtest_repeat=200.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/resilience/speculation.hpp"
#include "core/snapshot_fields.hpp"
#include "oracles/speculation_model.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::ResilienceCounters;
using tora::core::resilience::DeadlineTracker;
using tora::core::resilience::Duplicate;
using tora::core::resilience::ResilienceConfig;
using tora::core::resilience::Speculation;
using tora::oracles::SpeculationModel;
using Call = SpeculationModel::Call;
using Clock = Speculation::Clock;

std::uint64_t seed() {
  return static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
}

/// The runtime side, recorded in the model's terms; liveness is the
/// model's worker set.
class RecordingDriver final
    : public tora::core::resilience::SpeculationDriver {
 public:
  explicit RecordingDriver(const std::set<std::uint64_t>& alive)
      : alive_(alive) {}

  std::vector<Call> calls;

  void charge_copy(std::uint64_t task, double scale) override {
    calls.push_back({Call::Charge, task, 0, scale});
  }
  void free_copy(std::uint64_t task, std::uint64_t worker) override {
    calls.push_back({Call::Free, task, worker, 0.0});
  }
  bool copy_worker_alive(std::uint64_t worker) const override {
    return alive_.count(worker) != 0;
  }
  void promote_copy(std::uint64_t task, const Duplicate& copy) override {
    calls.push_back({Call::Promote, task, copy.worker, copy.start});
  }

 private:
  const std::set<std::uint64_t>& alive_;
};

void expect_same(const Speculation& m, const ResilienceCounters& counters,
                 const SpeculationModel& model, const RecordingDriver& d) {
  ASSERT_EQ(m.live(), model.live.size());
  for (const auto& [task, copy] : m.table()) {
    const auto it = model.live.find(task);
    ASSERT_NE(it, model.live.end()) << "task " << task;
    EXPECT_EQ(copy.worker, it->second.worker) << "task " << task;
    EXPECT_EQ(copy.start, it->second.start) << "task " << task;
    EXPECT_EQ(m.find(task), &copy);
  }
  EXPECT_EQ(counters.speculations_launched, model.launched);
  EXPECT_EQ(counters.speculations_promoted, model.promoted);
  EXPECT_EQ(counters.speculations_cancelled, model.cancelled);
  ASSERT_EQ(d.calls.size(), model.calls.size());
  for (std::size_t i = 0; i < d.calls.size(); ++i) {
    const Call& got = d.calls[i];
    const Call& want = model.calls[i];
    EXPECT_EQ(got.kind, want.kind) << "call " << i;
    EXPECT_EQ(got.task, want.task) << "call " << i;
    EXPECT_EQ(got.worker, want.worker) << "call " << i;
    EXPECT_EQ(got.value, want.value) << "call " << i;
  }
}

class SpeculationSoak : public ::testing::TestWithParam<Clock> {};

TEST_P(SpeculationSoak, MachineMatchesTheModel) {
  const bool seconds = GetParam() == Clock::Seconds;
  tora::util::Rng rng(seed() * 7 + (seconds ? 1 : 2));
  SCOPED_TRACE("seed " + std::to_string(seed()));
  ResilienceConfig cfg;
  cfg.speculation = true;
  cfg.min_records = 3;
  // Category 0 has a straggler threshold; category 1 was never observed.
  DeadlineTracker deadlines(cfg);
  for (int i = 0; i < 5; ++i) deadlines.observe(0, 2.0 + i);
  const double threshold = *deadlines.straggler_threshold(0);

  constexpr std::uint64_t kTasks = 8;
  constexpr std::uint64_t kWorkers = 5;
  const auto draw = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int trial = 0; trial < 20; ++trial) {
    ResilienceCounters counters;
    Speculation m(cfg, GetParam(), counters);
    SpeculationModel model(seconds);
    for (std::uint64_t w = 0; w < kWorkers; ++w) model.alive.insert(w);
    RecordingDriver d(model.alive);
    // The runtime's side of each task: its primary attempt.
    std::vector<double> primary_start(kTasks, 0.0);
    std::vector<std::uint64_t> primary_worker(kTasks, 0);
    const auto restart = [&](std::uint64_t task, double now) {
      primary_start[task] = now;
      primary_worker[task] = draw(kWorkers);
    };
    double now = 0.0;
    for (int step = 0; step < 300; ++step) {
      now += seconds ? rng.uniform(0.0, 3.0)
                     : static_cast<double>(rng.uniform_int(0, 2));
      const std::uint64_t task = draw(kTasks);
      const Duplicate* copy = m.find(task);
      switch (rng.uniform_int(0, 6)) {
        case 0:
        case 1: {  // the runtime's clock asks the gate, launching if it may
          const bool degraded = rng.bernoulli(0.2);
          const bool churn = rng.bernoulli(0.8);
          const bool known = rng.bernoulli(0.8);
          const auto g =
              m.gate(task, known ? 0 : 1, primary_start[task], now, degraded,
                     churn, deadlines);
          const auto want =
              model.gate(task, true, degraded, churn,
                         known ? std::optional(threshold) : std::nullopt,
                         primary_start[task], now);
          ASSERT_EQ(g.open, want.has_value());
          if (!g.open) break;
          ASSERT_EQ(g.passed, *want);
          ASSERT_EQ(g.due, primary_start[task] + threshold);
          if (!g.passed) break;
          const std::uint64_t w =
              (primary_worker[task] + 1 + draw(kWorkers - 1)) % kWorkers;
          m.launch(task, w, now);
          model.launch(task, w, now);
          break;
        }
        case 2:
          if (copy) {
            EXPECT_THROW(m.launch(task, copy->worker, now), std::logic_error);
          }
          m.primary_delivered(d, task, now);
          model.primary_delivered(task, now);
          restart(task, now);  // the task's next attempt
          break;
        case 3: {
          if (!copy) {
            EXPECT_THROW(m.duplicate_delivered(d, task, primary_worker[task],
                                               primary_start[task], now),
                         std::logic_error);
            break;
          }
          const Duplicate winner = *copy;
          m.duplicate_delivered(d, task, primary_worker[task],
                                primary_start[task], now);
          model.duplicate_delivered(task, primary_worker[task],
                                    primary_start[task], now);
          // The copy is the task's attempt now, from its own start.
          primary_worker[task] = winner.worker;
          primary_start[task] = winner.start;
          break;
        }
        case 4: {
          const auto before = model.live.count(task)
                                  ? std::optional(model.live.at(task))
                                  : std::nullopt;
          const bool promoted = m.primary_lost(d, task, now);
          ASSERT_EQ(promoted, model.primary_lost(task, now));
          if (promoted) {
            primary_worker[task] = before->worker;
            primary_start[task] = before->start;
          } else {
            restart(task, now);
          }
          break;
        }
        case 5:
          m.duplicate_lost(d, task, now);
          model.duplicate_lost(task, now);
          break;
        case 6: {  // a worker leaves or comes back
          const std::uint64_t w = draw(kWorkers);
          if (!model.alive.erase(w)) model.alive.insert(w);
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(m, counters, model, d))
          << "step " << step;
    }
    // The field list round-trips the table.
    Speculation loaded(cfg, GetParam(), counters);
    tora::core::snapshot::from_bytes(tora::core::snapshot::to_bytes(m),
                                     loaded);
    RecordingDriver none(model.alive);
    none.calls = model.calls;
    ASSERT_NO_FATAL_FAILURE(expect_same(loaded, counters, model, none));
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, SpeculationSoak,
                         ::testing::Values(Clock::Seconds, Clock::Ticks),
                         [](const ::testing::TestParamInfo<Clock>& info) {
                           return info.param == Clock::Seconds
                                      ? std::string("Seconds")
                                      : std::string("Ticks");
                         });

// The simulator's check fires at start + threshold, so that instant counts;
// the manager's scan needs an age in ticks above the threshold.
TEST(Speculation, EachClockDecidesWhenAnAttemptStraggles) {
  ResilienceConfig cfg;
  cfg.speculation = true;
  cfg.min_records = 1;
  DeadlineTracker deadlines(cfg);
  deadlines.observe(0, 2.0);  // threshold 2 x 1.5 = 3
  ResilienceCounters counters;
  const Speculation sim(cfg, Clock::Seconds, counters);
  const Speculation mgr(cfg, Clock::Ticks, counters);
  EXPECT_FALSE(sim.gate(0, 0, 10.0, 12.5, false, true, deadlines).passed);
  EXPECT_TRUE(sim.gate(0, 0, 10.0, 13.0, false, true, deadlines).passed);
  EXPECT_FALSE(mgr.gate(0, 0, 10.0, 13.0, false, true, deadlines).passed);
  EXPECT_TRUE(mgr.gate(0, 0, 10.0, 14.0, false, true, deadlines).passed);
  EXPECT_EQ(sim.gate(0, 0, 10.0, 12.5, false, true, deadlines).due, 13.0);
  // Closed: speculation off, degraded, calm, no threshold, a live copy.
  ResilienceConfig off = cfg;
  off.speculation = false;
  EXPECT_FALSE(Speculation(off, Clock::Ticks, counters)
                   .gate(0, 0, 0, 9, false, true, deadlines)
                   .open);
  EXPECT_FALSE(mgr.gate(0, 0, 0, 9, true, true, deadlines).open);
  EXPECT_FALSE(mgr.gate(0, 0, 0, 9, false, false, deadlines).open);
  EXPECT_FALSE(mgr.gate(0, 1, 0, 9, false, true, deadlines).open);
  Speculation busy(cfg, Clock::Ticks, counters);
  busy.launch(0, 1, 5.0);
  EXPECT_FALSE(busy.gate(0, 0, 0, 9, false, true, deadlines).open);
  EXPECT_TRUE(busy.gate(1, 0, 0, 9, false, true, deadlines).passed);
}

// The section starts with a format mark, so what a build with per-runtime
// speculation state wrote in its place (a count) is refused by name.
TEST(Speculation, RefusesBytesWithoutItsFormatMark) {
  tora::util::ByteWriter w;
  w.u64(1000);  // a per-task vector's count
  ResilienceCounters counters;
  Speculation m(ResilienceConfig{}, Clock::Seconds, counters);
  try {
    tora::core::snapshot::from_bytes(w.bytes(), m);
    ADD_FAILURE() << "loaded bytes without the format mark";
  } catch (const tora::core::SnapshotError& e) {
    EXPECT_EQ(e.section(), "Speculation");
    EXPECT_EQ(e.field(), "format");
  }
}

}  // namespace
