// Churn-adaptive resilience layer (core/resilience/): unit coverage of the
// trackers, the calm-baseline bit-exactness contract (an ENABLED layer with
// no churn evidence changes nothing), the speculative-waste accounting split
// (a lost duplicate is never an eviction; a lost primary with a live
// duplicate charges the ledger exactly once), probationary re-admission
// replacing permanent quarantine, and the eviction-storm degradation path.

#include "core/resilience/resilience.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "core/task.hpp"
#include "proto/channel.hpp"
#include "proto/drive.hpp"
#include "proto/manager.hpp"
#include "proto/message.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"
#include "straggler_scenario.hpp"
#include "util/bytes.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::resilience::DeadlineTracker;
using tora::core::resilience::ReliabilityTracker;
using tora::core::resilience::ResilienceConfig;
using tora::core::resilience::RuntimeHistogram;
using tora::core::resilience::StormDetector;
using tora::proto::DuplexLink;
using tora::proto::DuplexLinkPtr;
using tora::proto::Message;
using tora::proto::MsgType;
using tora::proto::Outcome;

// ------------------------------------------------------------ config

TEST(ResilienceConfig, DefaultsAreDisabledAndValid) {
  ResilienceConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ResilienceConfig, RejectsOutOfRangeKnobs) {
  const auto expect_bad = [](auto&& mutate) {
    ResilienceConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  expect_bad([](ResilienceConfig& c) { c.deadline_quantile = 0.0; });
  expect_bad([](ResilienceConfig& c) { c.deadline_quantile = 1.5; });
  expect_bad([](ResilienceConfig& c) { c.deadline_slack = 0.5; });
  expect_bad([](ResilienceConfig& c) { c.min_records = 0; });
  expect_bad([](ResilienceConfig& c) { c.straggler_quantile = -0.1; });
  expect_bad([](ResilienceConfig& c) { c.straggler_slack = 0.0; });
  expect_bad([](ResilienceConfig& c) { c.reliability_decay = 0.0; });
  expect_bad([](ResilienceConfig& c) { c.reliability_decay = 1.25; });
  expect_bad([](ResilienceConfig& c) { c.probation_sentence = 0.0; });
  expect_bad([](ResilienceConfig& c) { c.sentence_growth = 0.5; });
  expect_bad([](ResilienceConfig& c) { c.storm_window = 0.0; });
  expect_bad([](ResilienceConfig& c) { c.storm_enter = 0; });
  expect_bad([](ResilienceConfig& c) { c.storm_exit = c.storm_enter; });
  expect_bad([](ResilienceConfig& c) { c.degraded_inflight_cap = 0; });
  expect_bad([](ResilienceConfig& c) { c.degraded_deadline_widen = 0.9; });
}

// --------------------------------------------------------- histogram

TEST(RuntimeHistogram, NearestRankQuantiles) {
  RuntimeHistogram h;
  EXPECT_EQ(h.records(0), 0u);
  EXPECT_FALSE(h.quantile(0, 0.5).has_value());
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) h.observe(0, v);
  EXPECT_EQ(h.records(0), 5u);
  // Nearest-rank: rank = ceil(q*n) clamped to [1, n].
  EXPECT_DOUBLE_EQ(*h.quantile(0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(*h.quantile(0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(*h.quantile(0, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(*h.quantile(0, 0.75), 4.0);
  // Categories are independent.
  h.observe(7, 100.0);
  EXPECT_DOUBLE_EQ(*h.quantile(7, 0.5), 100.0);
  EXPECT_DOUBLE_EQ(*h.quantile(0, 1.0), 5.0);
}

TEST(RuntimeHistogram, SaveLoadRoundTrip) {
  RuntimeHistogram h;
  for (double v : {5.0, 1.0, 3.0}) h.observe(0, v);
  (void)h.quantile(0, 0.5);  // force a merge, then stage more
  h.observe(0, 2.0);
  h.observe(2, 9.0);
  tora::util::ByteWriter w;
  h.save(w);
  const std::string bytes = w.take();
  RuntimeHistogram back;
  tora::util::ByteReader r(bytes);
  back.load(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.records(0), 4u);
  EXPECT_DOUBLE_EQ(*back.quantile(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(*back.quantile(2, 1.0), 9.0);
}

TEST(DeadlineTracker, StaticFallbackBelowMinRecords) {
  ResilienceConfig cfg;
  cfg.deadlines = true;
  cfg.min_records = 3;
  cfg.deadline_quantile = 1.0;
  cfg.deadline_slack = 2.0;
  DeadlineTracker d(cfg);
  EXPECT_FALSE(d.adaptive(0));
  EXPECT_DOUBLE_EQ(d.deadline(0, 12.0), 12.0);
  EXPECT_DOUBLE_EQ(d.deadline(0, 12.0, 2.0), 24.0);  // widen applies to both
  EXPECT_FALSE(d.straggler_threshold(0).has_value());
  d.observe(0, 4.0);
  d.observe(0, 6.0);
  EXPECT_FALSE(d.adaptive(0));
  d.observe(0, 5.0);
  EXPECT_TRUE(d.adaptive(0));
  // max(4,5,6) * slack 2 = 12 is now histogram-derived, not the fallback.
  EXPECT_DOUBLE_EQ(d.deadline(0, 99.0), 12.0);
  EXPECT_DOUBLE_EQ(d.deadline(0, 99.0, 2.0), 24.0);
  ASSERT_TRUE(d.straggler_threshold(0).has_value());
}

// -------------------------------------------------------- reliability

TEST(ReliabilityTracker, ScoresAndProbationStateMachine) {
  ResilienceConfig cfg;
  cfg.reliability = true;
  cfg.reliability_decay = 0.5;
  cfg.probation_sentence = 10.0;
  cfg.sentence_growth = 2.0;
  ReliabilityTracker rt(cfg);

  EXPECT_DOUBLE_EQ(rt.score(3), 1.0);  // unseen workers are trusted
  rt.on_offense(3);
  EXPECT_DOUBLE_EQ(rt.score(3), 0.5);
  rt.on_offense(3);
  EXPECT_DOUBLE_EQ(rt.score(3), 0.25);
  rt.on_success(3);
  EXPECT_DOUBLE_EQ(rt.score(3), 0.625);

  // First conviction: sentence = 10, served over [100, 110).
  EXPECT_DOUBLE_EQ(rt.quarantine(3, 100.0), 10.0);
  EXPECT_EQ(rt.convictions(3), 1u);
  EXPECT_TRUE(rt.quarantined(3, 105.0));
  EXPECT_FALSE(rt.probationary(3, 105.0));
  EXPECT_FALSE(rt.quarantined(3, 110.0));
  EXPECT_TRUE(rt.probationary(3, 110.0));
  // A delivered result redeems probation.
  rt.on_success(3);
  EXPECT_FALSE(rt.probationary(3, 111.0));
  // Re-offense: the sentence doubles.
  EXPECT_DOUBLE_EQ(rt.quarantine(3, 120.0), 20.0);
  EXPECT_EQ(rt.convictions(3), 2u);
  EXPECT_TRUE(rt.quarantined(3, 139.0));
  EXPECT_TRUE(rt.probationary(3, 140.0));

  // Round-trip preserves every entry.
  tora::util::ByteWriter w;
  rt.save(w);
  const std::string bytes = w.take();
  ReliabilityTracker back(cfg);
  tora::util::ByteReader r(bytes);
  back.load(r);
  EXPECT_TRUE(r.done());
  EXPECT_DOUBLE_EQ(back.score(3), rt.score(3));
  EXPECT_EQ(back.convictions(3), 2u);
  EXPECT_TRUE(back.quarantined(3, 139.0));
}

// -------------------------------------------------------------- storm

TEST(StormDetector, EntersAndExitsOnWindowedEvictionRate) {
  ResilienceConfig cfg;
  cfg.storm_control = true;
  cfg.storm_window = 10.0;
  cfg.storm_enter = 3;
  cfg.storm_exit = 1;
  StormDetector s(cfg);
  EXPECT_FALSE(s.degraded());
  s.on_eviction(0.0);
  s.on_eviction(1.0);
  EXPECT_FALSE(s.degraded());
  s.on_eviction(2.0);
  EXPECT_TRUE(s.degraded());
  EXPECT_EQ(s.storms_entered(), 1u);
  // Window drains: at t=11.5 only the t=2 eviction remains (<= exit of 1).
  s.update(11.5);
  EXPECT_FALSE(s.degraded());
  EXPECT_EQ(s.storms_exited(), 1u);
  // Disabled detector never degrades.
  StormDetector off{ResilienceConfig{}};
  for (int i = 0; i < 50; ++i) off.on_eviction(static_cast<double>(i) * 0.01);
  EXPECT_FALSE(off.degraded());
}

// -------------------------------------------------- calm bit-exactness

constexpr ResourceVector kCapacity{16.0, 65536.0, 65536.0, 0.0};

std::vector<TaskSpec> retry_workload(std::size_t n) {
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

ResilienceConfig everything_on() {
  ResilienceConfig r;
  r.deadlines = true;
  r.speculation = true;
  r.reliability = true;
  r.storm_control = true;
  r.min_records = 2;
  return r;
}

std::string accounting_bytes(const tora::core::WasteAccounting& a) {
  tora::util::ByteWriter w;
  a.save(w);
  return w.take();
}

TEST(ResilienceCalm, EnabledLayerChangesNothingWithoutChurnInSim) {
  const auto tasks = retry_workload(30);

  tora::sim::SimConfig base;
  base.worker_capacity = kCapacity;
  base.churn.enabled = false;
  base.churn.initial_workers = 3;

  auto alloc_off = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::Simulation off(tasks, alloc_off, base);
  const auto r_off = off.run();

  tora::sim::SimConfig cfg_on = base;
  cfg_on.resilience = everything_on();
  auto alloc_on = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::Simulation on(tasks, alloc_on, cfg_on);
  const auto r_on = on.run();

  // Bit-exact: waste accounting, makespan, completions, and no resilience
  // activity at all — the churn-evidence gate never opened.
  EXPECT_EQ(accounting_bytes(r_on.accounting), accounting_bytes(r_off.accounting));
  EXPECT_EQ(r_on.makespan_s, r_off.makespan_s);
  EXPECT_EQ(r_on.tasks_completed, r_off.tasks_completed);
  EXPECT_EQ(r_on.evictions, 0u);
  EXPECT_EQ(r_on.resilience, tora::core::ResilienceCounters{});
  EXPECT_EQ(r_on.accounting.speculative_attempts(), 0u);
}

TEST(ResilienceCalm, EnabledLayerChangesNothingInFaultFreeProto) {
  const auto tasks = retry_workload(24);

  auto run = [&](const ResilienceConfig& res) {
    auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
    tora::proto::LivenessConfig cfg;
    cfg.resilience = res;
    auto link = std::make_shared<DuplexLink>();
    tora::proto::ProtocolManager manager(tasks, alloc, {link}, cfg);
    tora::proto::WorkerAgent agent(0, kCapacity, tasks, link);
    agent.announce();
    manager.start();
    for (int round = 0; round < 100000 && !manager.done(); ++round) {
      manager.pump();
      agent.pump();
    }
    EXPECT_TRUE(manager.done());
    return std::pair(accounting_bytes(manager.accounting()),
                     manager.resilience());
  };

  const auto [bytes_off, res_off] = run(ResilienceConfig{});
  const auto [bytes_on, res_on] = run(everything_on());
  EXPECT_EQ(bytes_on, bytes_off);
  EXPECT_EQ(res_on, tora::core::ResilienceCounters{});
  EXPECT_EQ(res_off, tora::core::ResilienceCounters{});
}

// ------------------------------------- scripted protocol manager harness

constexpr ResourceVector kSmallCap{4.0, 1000.0, 1000.0, 0.0};

std::vector<TaskSpec> small_tasks(std::size_t n) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = ResourceVector{3.0, 500.0, 500.0, 0.0};
    tasks[i].duration_s = 5.0;
  }
  return tasks;
}

/// Hand-driven deployment: the test plays all the workers, crafting
/// heartbeats, results and evictions so every resilience transition is
/// reached deterministically.
struct Scripted {
  std::vector<TaskSpec> tasks;
  tora::core::TaskAllocator alloc;
  std::vector<DuplexLinkPtr> links;
  tora::proto::ProtocolManager manager;

  Scripted(std::size_t n_tasks, std::size_t n_workers,
           tora::proto::LivenessConfig cfg)
      : tasks(small_tasks(n_tasks)),
        alloc(tora::core::make_allocator(tora::core::kMaxSeen, 5, kSmallCap)),
        links(make_links(n_workers)),
        manager(tasks, alloc, links, cfg) {
    for (std::size_t i = 0; i < n_workers; ++i) {
      Message m;
      m.type = MsgType::WorkerReady;
      m.worker_id = i;
      m.resources = kSmallCap;
      links[i]->to_manager.send(encode(m));
    }
    manager.start();
  }

  static std::vector<DuplexLinkPtr> make_links(std::size_t n) {
    std::vector<DuplexLinkPtr> ls;
    for (std::size_t i = 0; i < n; ++i) {
      ls.push_back(std::make_shared<DuplexLink>());
    }
    return ls;
  }

  void heartbeat(std::uint64_t worker) {
    Message m;
    m.type = MsgType::Heartbeat;
    m.worker_id = worker;
    m.resources = kSmallCap;
    links[worker]->to_manager.send(encode(m));
  }

  void result(const Message& dispatch, Outcome outcome) {
    Message m;
    m.type = MsgType::TaskResult;
    m.worker_id = dispatch.worker_id;
    m.task_id = dispatch.task_id;
    m.attempt = dispatch.attempt;
    m.resources = tasks[dispatch.task_id].demand;  // measured peak
    m.runtime_s = tasks[dispatch.task_id].duration_s;
    m.outcome = outcome;
    links[dispatch.worker_id]->to_manager.send(encode(m));
  }

  void evict(std::uint64_t worker, std::uint64_t task) {
    Message m;
    m.type = MsgType::Evict;
    m.worker_id = worker;
    m.task_id = task;
    links[worker]->to_manager.send(encode(m));
  }

  /// Drains worker `w`'s inbound channel, returning decoded messages.
  std::vector<Message> drain(std::uint64_t w) {
    std::vector<Message> out;
    while (auto line = links[w]->to_worker.poll()) {
      auto m = tora::proto::decode(*line);
      if (m) out.push_back(*m);
    }
    return out;
  }

  /// Finds the next TaskDispatch for `task` on worker `w` (fails the test
  /// if absent).
  Message expect_dispatch(std::uint64_t w, std::uint64_t task) {
    for (const Message& m : drain(w)) {
      if (m.type == MsgType::TaskDispatch && m.task_id == task) return m;
    }
    ADD_FAILURE() << "expected a dispatch of task " << task << " on worker "
                  << w;
    return Message{};
  }
};

tora::proto::LivenessConfig speculation_config() {
  tora::proto::LivenessConfig cfg;
  cfg.silence_ticks = 2;
  cfg.attempt_timeout_ticks = 30;  // out of the way unless a test wants it
  cfg.resilience.speculation = true;
  cfg.resilience.min_records = 1;
  return cfg;
}

/// Drives the shared preamble: t0 completes (feeds the histogram), t1 is
/// evicted once (churn evidence) and re-dispatched to worker 0, then goes
/// silent until a speculative duplicate lands on worker 1. Returns the
/// duplicate's dispatch message.
Message speculate_preamble(Scripted& s) {
  s.manager.pump();  // tick 1: register workers, dispatch t0->w0, t1->w1
  const Message d0 = s.expect_dispatch(0, 0);
  (void)s.expect_dispatch(1, 1);
  s.result(d0, Outcome::Success);  // histogram: duration 1 tick
  s.evict(1, 1);                   // churn evidence; t1 requeued
  s.heartbeat(0);
  s.heartbeat(1);
  s.manager.pump();  // tick 2: eviction + redispatch t1 -> w0 (first fit)
  EXPECT_EQ(s.manager.core().evictions(), 1u);
  (void)s.expect_dispatch(0, 1);
  s.heartbeat(0);
  s.heartbeat(1);
  s.manager.pump();  // tick 3: age 1 <= threshold 1.5, no duplicate yet
  EXPECT_EQ(s.manager.resilience().speculations_launched, 0u);
  s.heartbeat(0);
  s.heartbeat(1);
  s.manager.pump();  // tick 4: age 2 > 1.5 -> duplicate onto w1
  EXPECT_EQ(s.manager.resilience().speculations_launched, 1u);
  Message spec = s.expect_dispatch(1, 1);
  EXPECT_EQ(spec.attempt, 2u);  // SAME wire attempt id as the primary
  return spec;
}

TEST(ResilienceSpeculation, LostPrimaryWithLiveDuplicateChargesLedgerOnce) {
  Scripted s(2, 2, speculation_config());
  const Message spec = speculate_preamble(s);

  // Worker 0 (the primary's host) goes silent; worker 1 keeps beating.
  // The death must charge the eviction ledger EXACTLY once for the lost
  // primary — the in-flight duplicate is a handover, not a second eviction.
  for (int i = 0; i < 3; ++i) {
    s.heartbeat(1);
    s.manager.pump();  // ticks 5..7: w0 silent beyond 2 -> declared dead
  }
  EXPECT_EQ(s.manager.chaos().workers_declared_dead, 1u);
  EXPECT_EQ(s.manager.core().evictions(), 2u);  // 1 scripted + exactly 1 here
  EXPECT_EQ(s.manager.resilience().speculations_promoted, 1u);
  EXPECT_EQ(s.manager.resilience().speculations_cancelled, 0u);

  // The promoted duplicate's result completes the task.
  s.result(spec, Outcome::Success);
  s.heartbeat(1);
  s.manager.pump();
  EXPECT_TRUE(s.manager.done());
  EXPECT_EQ(s.manager.tasks_completed(), 2u);
  // A promoted duplicate is not waste: the speculative column stays empty.
  EXPECT_EQ(s.manager.accounting().speculative_attempts(), 0u);
  for (ResourceKind k : tora::core::kManagedResources) {
    EXPECT_DOUBLE_EQ(s.manager.accounting().breakdown(k).speculative, 0.0);
  }
}

TEST(ResilienceSpeculation, LostDuplicateIsSpeculativeWasteNotEviction) {
  Scripted s(2, 2, speculation_config());
  (void)speculate_preamble(s);

  // Worker 1 (the duplicate's host) goes silent instead; the primary on
  // worker 0 is untouched. The loss lands in the speculative column, the
  // eviction ledger does not move.
  Message primary_redispatch;
  for (int i = 0; i < 3; ++i) {
    s.heartbeat(0);
    s.manager.pump();  // ticks 5..7: w1 silent beyond 2 -> declared dead
  }
  EXPECT_EQ(s.manager.chaos().workers_declared_dead, 1u);
  EXPECT_EQ(s.manager.core().evictions(), 1u);  // only the scripted one
  EXPECT_EQ(s.manager.resilience().speculations_cancelled, 1u);
  EXPECT_EQ(s.manager.resilience().speculations_promoted, 0u);
  EXPECT_EQ(s.manager.accounting().speculative_attempts(), 1u);
  double spec_waste = 0.0;
  for (ResourceKind k : tora::core::kManagedResources) {
    spec_waste += s.manager.accounting().breakdown(k).speculative;
  }
  EXPECT_GT(spec_waste, 0.0);

  // The primary still answers with its original attempt id and completes.
  Message d1;
  d1.worker_id = 0;
  d1.task_id = 1;
  d1.attempt = 2;
  s.result(d1, Outcome::Success);
  s.heartbeat(0);
  s.manager.pump();
  EXPECT_TRUE(s.manager.done());
  EXPECT_EQ(s.manager.tasks_completed(), 2u);
}

TEST(ResilienceSpeculation, PrimaryTimeoutPromotesFreshDuplicateAndQuarantines) {
  auto cfg = speculation_config();
  cfg.silence_ticks = 30;         // keep silence detection out of the way
  cfg.attempt_timeout_ticks = 3;  // primary times out at tick 6 (age 4)
  cfg.worker_failure_limit = 1;   // first timeout convicts the worker
  Scripted s(2, 2, cfg);
  const Message spec = speculate_preamble(s);

  // Ticks 5-6: the primary (dispatched tick 2) exceeds the 3-tick window
  // while the duplicate (dispatched tick 4) is still fresh. The duplicate
  // is promoted — timeouts charge NEITHER ledger — and worker 0 is
  // quarantined for eating the attempt.
  for (int i = 0; i < 2; ++i) {
    s.heartbeat(0);
    s.heartbeat(1);
    s.manager.pump();
  }
  EXPECT_EQ(s.manager.chaos().attempt_timeouts, 1u);
  EXPECT_EQ(s.manager.chaos().workers_quarantined, 1u);
  EXPECT_EQ(s.manager.core().evictions(), 1u);  // only the scripted one
  EXPECT_EQ(s.manager.resilience().speculations_promoted, 1u);
  EXPECT_EQ(s.manager.accounting().speculative_attempts(), 0u);

  s.result(spec, Outcome::Success);
  s.heartbeat(1);
  s.manager.pump();
  EXPECT_TRUE(s.manager.done());
  EXPECT_EQ(s.manager.tasks_completed(), 2u);
}

// The degraded cap counts a live duplicate as an in-flight attempt, as the
// simulator does: with one Running task and its duplicate in flight, a cap
// of 2 is full, so the storm's next dispatch is held and counted.
TEST(ResilienceStorm, ManagerCapCountsALiveDuplicate) {
  auto cfg = speculation_config();
  cfg.resilience.storm_control = true;
  cfg.resilience.storm_enter = 2;
  cfg.resilience.storm_exit = 1;
  cfg.resilience.degraded_inflight_cap = 2;
  Scripted s(3, 3, cfg);
  const auto beat = [&] {
    for (std::uint64_t w = 0; w < 3; ++w) s.heartbeat(w);
  };
  s.manager.pump();  // tick 1: t0->w0, t1->w1, t2->w2
  const Message d0 = s.expect_dispatch(0, 0);
  (void)s.expect_dispatch(1, 1);
  (void)s.expect_dispatch(2, 2);
  s.result(d0, Outcome::Success);  // histogram: duration 1 tick
  s.evict(2, 2);                   // churn evidence; one eviction
  beat();
  s.manager.pump();  // tick 2: t2 -> w0 (first fit)
  (void)s.expect_dispatch(0, 2);
  beat();
  s.manager.pump();  // tick 3: t1 (age 2 > 1.5) gets a duplicate on w2
  ASSERT_EQ(s.manager.resilience().speculations_launched, 1u);
  (void)s.expect_dispatch(2, 1);
  s.evict(0, 2);  // the second eviction enters degraded mode
  beat();
  s.manager.pump();  // tick 4: t1 and its duplicate fill the cap
  EXPECT_EQ(s.manager.resilience().storms_entered, 1u);
  EXPECT_EQ(s.manager.resilience().dispatches_held, 1u);
  EXPECT_NE(s.manager.core().entry(2).phase,
            tora::core::lifecycle::TaskPhase::Running);
  for (const Message& m : s.drain(0)) {
    EXPECT_NE(m.type, MsgType::TaskDispatch) << "task " << m.task_id;
  }
}

/// Learns each promotion at an eviction (the task is still Running when
/// on_task_evicted fires) and which straggler checks and deadlines pop for
/// the promoted attempt: its epoch is one above the epoch of the check that
/// launched the duplicate (an eviction bumps it once).
class PromotionWatch final : public tora::sim::SimObserver {
 public:
  explicit PromotionWatch(const tora::sim::Simulation& sim) : sim_(sim) {}

  struct Promotion {
    std::uint64_t task;
    std::uint64_t epoch;
    bool checked = false;
    bool deadline = false;
  };
  std::vector<Promotion> promotions;

  void on_event(const tora::sim::Event& e) override {
    // A launch happens only in a straggler check's handler: if the count
    // moved, the previous event launched a duplicate.
    const std::size_t launched = sim_.result().resilience.speculations_launched;
    if (launched != launched_) {
      launch_epoch_[last_.a] = last_.epoch;
      launched_ = launched;
    }
    last_ = e;
    for (Promotion& p : promotions) {
      if (e.a != p.task || e.epoch != p.epoch) continue;
      p.checked |= e.kind == tora::sim::EventKind::SpecCheck;
      p.deadline |= e.kind == tora::sim::EventKind::DeadlineKill;
    }
  }
  void on_task_evicted(double, std::uint64_t task, std::uint64_t) override {
    if (sim_.core().entry(task).phase ==
            tora::core::lifecycle::TaskPhase::Running &&
        launch_epoch_.count(task) != 0) {
      promotions.push_back({task, launch_epoch_[task] + 1});
    }
  }

 private:
  const tora::sim::Simulation& sim_;
  std::size_t launched_ = 0;
  tora::sim::Event last_;
  std::map<std::uint64_t, std::uint64_t> launch_epoch_;
};

// A duplicate promoted when its primary's worker is evicted becomes the
// task's attempt from its own start, armed as a dispatch arms one: its
// straggler check pops (so it can be duplicated in turn), and so does its
// adaptive deadline where the model lets it outlive one.
TEST(ResilienceSpeculation, SimulatorArmsAPromotedDuplicate) {
  const auto tasks = tora::testing::straggler_workload(300);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::Simulation sim(tasks, alloc,
                            tora::testing::straggler_config(1, false));
  PromotionWatch watch(sim);
  sim.set_observer(&watch);
  const auto r = sim.run();
  EXPECT_EQ(r.tasks_completed, tasks.size());
  ASSERT_GT(watch.promotions.size(), 0u);
  std::size_t deadlines = 0;
  for (const auto& p : watch.promotions) {
    EXPECT_TRUE(p.checked) << "task " << p.task << " epoch " << p.epoch;
    deadlines += p.deadline;
  }
  EXPECT_GT(deadlines, 0u);
}

TEST(ResilienceProbation, ConvictedWorkerIsReadmittedAfterSentence) {
  tora::proto::LivenessConfig cfg;
  cfg.silence_ticks = 30;
  cfg.attempt_timeout_ticks = 2;
  cfg.worker_failure_limit = 1;
  cfg.backoff_base_ticks = 1;
  cfg.resilience.reliability = true;
  cfg.resilience.probation_sentence = 3.0;
  Scripted s(2, 1, cfg);

  s.manager.pump();  // tick 1: register w0, dispatch t0->w0
  (void)s.expect_dispatch(0, 0);
  // Never answer: t0 times out at tick 4 (age 3 > 2), convicting w0.
  for (int i = 0; i < 3; ++i) {
    s.heartbeat(0);
    s.manager.pump();  // ticks 2..4
  }
  EXPECT_EQ(s.manager.chaos().workers_quarantined, 1u);
  EXPECT_EQ(s.manager.workers_known(), 0u);

  // Sentence is 3 ticks from the conviction at tick 4: heartbeats during
  // [4, 7) are rejected, the tick-7 one re-registers on probation.
  std::size_t probation_tick = 0;
  for (int i = 0; i < 4; ++i) {
    s.heartbeat(0);
    s.manager.pump();  // ticks 5..8
    if (probation_tick == 0 && s.manager.workers_known() == 1) {
      probation_tick = s.manager.ticks();
    }
  }
  EXPECT_EQ(probation_tick, 7u);
  EXPECT_EQ(s.manager.resilience().probation_admissions, 1u);

  // The re-admitted worker delivers both tasks (redeeming itself).
  for (int i = 0; i < 20 && !s.manager.done(); ++i) {
    for (const Message& m : s.drain(0)) {
      if (m.type == MsgType::TaskDispatch) s.result(m, Outcome::Success);
    }
    s.heartbeat(0);
    s.manager.pump();
  }
  EXPECT_TRUE(s.manager.done());
  EXPECT_EQ(s.manager.tasks_completed(), 2u);
  EXPECT_EQ(s.manager.chaos().workers_quarantined, 1u);  // no re-conviction
}

// ------------------------------------------------------ storm smoke (sim)

TEST(ResilienceStorm, SimulatedStormBurstsDriveDegradedModeAndStillComplete) {
  const auto tasks = retry_workload(80);
  tora::sim::SimConfig cfg;
  cfg.worker_capacity = kCapacity;
  cfg.seed = 11;
  cfg.churn.enabled = true;
  cfg.churn.initial_workers = 10;
  cfg.churn.min_workers = 4;
  cfg.churn.max_workers = 12;
  cfg.churn.mean_interarrival_s = 30.0;
  cfg.churn.storm_interval_s = 60.0;
  cfg.churn.storm_duration_s = 30.0;
  cfg.churn.storm_evict_fraction = 0.8;
  cfg.resilience = everything_on();
  cfg.resilience.storm_enter = 4;

  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 3);
  tora::sim::Simulation sim(tasks, alloc, cfg);
  const auto r = sim.run();

  EXPECT_EQ(r.tasks_completed + r.tasks_fatal, tasks.size());
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.resilience.storms_entered, 0u);
  // Degradation is symmetric: every storm entered is eventually exited
  // (the run only ends once the pool calmed down and work finished).
  EXPECT_EQ(r.resilience.storms_entered, r.resilience.storms_exited);
}

/// In-process chaos links that run `check` after the manager pump and
/// after the agent pumps of every round.
class CheckedTransport final : public tora::proto::Transport {
 public:
  CheckedTransport(std::size_t workers, const tora::proto::ChaosConfig& chaos,
                   std::function<void()> check)
      : inner_(workers, chaos), check_(std::move(check)) {}
  const std::vector<DuplexLinkPtr>& links() const override {
    return inner_.links();
  }
  const DuplexLinkPtr& worker_link(std::size_t i) const override {
    return inner_.worker_link(i);
  }
  void step() override { check_(); }
  void harvest(tora::proto::ProtocolRunResult& result) const override {
    inner_.harvest(result);
  }

 private:
  tora::proto::LinkTransport inner_;
  std::function<void()> check_;
};

TEST(ResilienceStorm, ManagerGateCountsTheRunningTasks) {
  // The degraded admission gate reads the tenancy core's running counts
  // plus the live duplicates; on a chaos run that enters storms and
  // speculates (the pinned ManagerChaosWithEveryFeature setup), after every
  // pump the running counts sum to the Running tasks, the gate's count is
  // that plus the live duplicates, and every live duplicate is a copy of a
  // Running task on another registered worker.
  auto workload = tora::workloads::make_workload("trimodal", 11);
  workload.tasks.resize(200);
  tora::proto::ChaosConfig chaos;
  chaos.seed = 1;
  chaos.to_worker.drop_prob = 0.08;
  chaos.to_worker.duplicate_prob = 0.05;
  chaos.to_worker.corrupt_prob = 0.05;
  chaos.to_manager = chaos.to_worker;
  chaos.sever_workers = 1;
  chaos.sever_after_messages = 60;
  chaos.worker_faults.resize(3);
  chaos.worker_faults[2].crash_point = tora::proto::CrashPoint::BeforeResult;
  chaos.liveness.resilience = everything_on();
  chaos.liveness.resilience.storm_enter = 2;
  chaos.liveness.resilience.storm_exit = 1;
  chaos.liveness.resilience.degraded_inflight_cap = 2;
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);

  const tora::proto::ProtocolDrive* drive = nullptr;
  std::size_t checks = 0;
  std::size_t duplicates_seen = 0;
  CheckedTransport transport(8, chaos, [&] {
    if (drive == nullptr) return;
    const tora::proto::ProtocolManager& manager = drive->manager();
    const auto& core = manager.tenants();
    std::size_t counted = 0;
    for (std::uint32_t t = 0; t < core.tenant_count(); ++t) {
      counted += core.running_count(t);
    }
    std::size_t running = 0;
    for (std::uint64_t id = 0; id < core.task_count(); ++id) {
      if (core.entry(id).phase ==
          tora::core::lifecycle::TaskPhase::Running) {
        ++running;
      }
    }
    EXPECT_EQ(counted, running) << "check " << checks;
    const auto& table = manager.speculation().table();
    for (const auto& [task, copy] : table) {
      const auto& entry = core.entry(task);
      EXPECT_EQ(entry.phase, tora::core::lifecycle::TaskPhase::Running);
      EXPECT_TRUE(manager.registered(copy.worker)) << "task " << task;
      EXPECT_NE(copy.worker, entry.running_on) << "task " << task;
    }
    EXPECT_EQ(manager.inflight(), running + table.size()) << "check "
                                                          << checks;
    duplicates_seen += table.size();
    ++checks;
  });
  tora::proto::ProtocolDrive run(
      transport, nullptr,
      {nullptr, std::make_unique<tora::proto::ProtocolManager>(
                    workload.tasks, alloc, transport.links(), chaos.liveness)},
      kCapacity, chaos);
  drive = &run;
  tora::proto::ProtocolRunResult result;
  run.run(1000000, result);
  EXPECT_EQ(result.tasks_completed, 200u);
  EXPECT_GT(result.resilience.storms_entered, 0u);
  EXPECT_GT(result.resilience.dispatches_held, 0u);
  EXPECT_GT(checks, 100u);
  EXPECT_GT(duplicates_seen, 0u);
}

// The simulator's twin: after every step of the straggler scenario (churn,
// storms, degraded mode, speculation), the cap's count is the Running tasks
// plus the live duplicates, and every live duplicate is a copy of a Running
// task on another live worker, occupying it.
TEST(ResilienceStorm, SimulatorGateCountsTheRunningTasks) {
  const auto tasks = tora::testing::straggler_workload(300);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::Simulation sim(tasks, alloc,
                            tora::testing::straggler_config(1, true));
  std::size_t steps = 0;
  std::size_t duplicates_seen = 0;
  while (sim.step()) {
    std::size_t running = 0;
    for (std::uint64_t id = 0; id < tasks.size(); ++id) {
      running += sim.core().entry(id).phase ==
                 tora::core::lifecycle::TaskPhase::Running;
    }
    const auto& table = sim.speculation().table();
    for (const auto& [task, copy] : table) {
      const auto& entry = sim.core().entry(task);
      ASSERT_EQ(entry.phase, tora::core::lifecycle::TaskPhase::Running);
      ASSERT_TRUE(sim.pool().alive(copy.worker)) << "task " << task;
      EXPECT_NE(copy.worker, entry.running_on) << "task " << task;
      EXPECT_EQ(sim.pool().worker(copy.worker).running_tasks().count(task),
                1u);
    }
    ASSERT_EQ(sim.inflight(), running + table.size()) << "step " << steps;
    duplicates_seen += table.size();
    ++steps;
  }
  const auto r = sim.result();
  EXPECT_EQ(r.tasks_completed, tasks.size());
  EXPECT_GT(r.resilience.storms_entered, 0u);
  EXPECT_GT(r.resilience.dispatches_held, 0u);
  EXPECT_GT(duplicates_seen, 0u);
  EXPECT_GT(steps, 100u);
}

TEST(ResilienceStorm, StormKnobsAreValidated) {
  const auto tasks = retry_workload(4);
  tora::sim::SimConfig cfg;
  cfg.churn.storm_interval_s = 100.0;  // interval without duration/fraction
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 3);
  EXPECT_THROW(tora::sim::Simulation(tasks, alloc, cfg),
               std::invalid_argument);
  cfg.churn.storm_duration_s = 10.0;
  cfg.churn.storm_evict_fraction = 1.5;  // out of range
  EXPECT_THROW(tora::sim::Simulation(tasks, alloc, cfg),
               std::invalid_argument);
}

}  // namespace
