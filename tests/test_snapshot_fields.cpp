// One test per refusal the snapshot field lists add: each starts from a
// valid body, finds the field by tracing the section's load
// (core::snapshot::trace), rewrites it, and expects a core::SnapshotError
// naming the section and the field.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/metrics.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/registry.hpp"
#include "core/resilience/resilience.hpp"
#include "core/snapshot_fields.hpp"
#include "core/tenancy/arbiter.hpp"
#include "core/tenancy/multi_tenant_core.hpp"
#include "proto/manager.hpp"
#include "proto/worker_agent.hpp"
#include "scripted_driver.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::SnapshotError;
using tora::core::TaskSpec;
using tora::core::snapshot::Leaf;
using tora::util::ByteReader;
using tora::util::ByteWriter;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using LoadFn = std::function<void(ByteReader&)>;

void put_le(std::string& body, std::size_t at, std::uint64_t v,
            std::size_t width) {
  ASSERT_LE(at + width, body.size());
  for (std::size_t i = 0; i < width; ++i) {
    body[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The `nth` value the load reads for (section, field).
Leaf find_leaf(const std::string& body, const LoadFn& load,
               const std::string& section, const std::string& field,
               std::size_t nth = 0) {
  for (const Leaf& leaf : tora::core::snapshot::trace(body, load)) {
    if (leaf.section == section && leaf.field == field && nth-- == 0) {
      return leaf;
    }
  }
  ADD_FAILURE() << "no value " << section << "." << field << " in the body";
  return {};
}

/// Rewrites the located value with `v` (a double's bits for F64 leaves) and
/// expects the load to refuse it, naming (section, field).
void expect_refused(const std::string& body, const LoadFn& load,
                    const Leaf& at, std::uint64_t v,
                    const std::string& section, const std::string& field) {
  using tora::core::snapshot::Kind;
  std::string bad = body;
  const std::size_t width = at.kind == Kind::Bool || at.kind == Kind::Enum ? 1
                            : at.kind == Kind::U32 || at.kind == Kind::Length
                                ? 4
                                : 8;
  put_le(bad, at.offset, v, width);
  try {
    ByteReader r(bad);
    load(r);
    ADD_FAILURE() << "loaded a bad " << section << "." << field;
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), section) << e.what();
    EXPECT_EQ(e.field(), field) << e.what();
  }
}

void expect_f64_refused(const std::string& body, const LoadFn& load,
                        const std::string& section, const std::string& field,
                        double v, std::size_t nth = 0) {
  expect_refused(body, load, find_leaf(body, load, section, field, nth),
                 bits_of(v), section, field);
}

std::vector<TaskSpec> small_workload(std::size_t n) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = i % 2 == 0 ? "even" : "odd";
    tasks[i].demand = ResourceVector{1.0, 100.0, 100.0};
    tasks[i].peak_fraction = 0.5;
    tasks[i].duration_s = 1.0 + static_cast<double>(i % 3);
  }
  return tasks;
}

// ------------------------------------------------------------ ManagerWorker

TEST(ManagerWorkerFields, RefusesNaNInEveryDimension) {
  // One registered worker, two ticks into a run so that it holds
  // commitments. Each capacity and committed entry, the wall-time dimension
  // included, set to NaN in turn is refused by name.
  const std::vector<TaskSpec> tasks = small_workload(6);
  const std::vector<tora::proto::DuplexLinkPtr> links{
      std::make_shared<tora::proto::DuplexLink>()};
  auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  tora::proto::ProtocolManager manager(tasks, allocator, links);
  tora::proto::WorkerAgent agent(0, ResourceVector{4.0, 8000.0, 8000.0},
                                 tasks, links[0]);
  agent.announce();
  manager.start();
  manager.pump();
  manager.pump();
  const std::string body = manager.snapshot_body();
  const LoadFn load = [&](ByteReader& r) {
    auto fresh_allocator = tora::core::make_allocator(tora::core::kMaxSeen, 1);
    tora::proto::ProtocolManager fresh(tasks, fresh_allocator, links);
    std::string rest(r.remaining(), '\0');
    for (char& c : rest) c = static_cast<char>(r.u8());
    fresh.begin_replay(rest);
  };
  ByteReader valid(body);
  EXPECT_NO_THROW(load(valid));
  for (const char* field : {"capacity", "committed"}) {
    for (std::size_t dim = 0; dim < tora::core::kAllResources.size(); ++dim) {
      SCOPED_TRACE(std::string(field) + " dimension " + std::to_string(dim));
      expect_f64_refused(body, load, "ManagerWorker", field, kNaN, dim);
    }
  }
}

// ------------------------------------------------------------ DispatchCore

/// Four tasks: 0 completed, 1 failed once and requeued, 2 and 3 Queued.
class DispatchFields : public ::testing::Test {
 protected:
  DispatchFields() {
    tora::core::lifecycle::DispatchCore core(tasks_, allocator_, {});
    core.start();
    tora::tests::ScriptedDriver driver(
        [](std::uint64_t task, const ResourceVector&)
            -> std::optional<std::uint64_t> {
          if (task > 1) return std::nullopt;
          return 0;
        },
        [](std::uint64_t, std::uint64_t, const ResourceVector&) {});
    core.dispatch_pass(driver);
    core.complete(0, ResourceVector{0.5, 50.0, 50.0}, 1.0);
    core.fail_attempt(1, 2.0, 1);
    ByteWriter w;
    core.save_state(w);
    body_ = w.take();
    load_ = [this](ByteReader& r) {
      auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 1);
      tora::core::lifecycle::DispatchCore fresh(tasks_, allocator, {});
      fresh.load_state(r);
    };
  }

  std::vector<TaskSpec> tasks_ = small_workload(4);
  tora::core::TaskAllocator allocator_ =
      tora::core::make_allocator(tora::core::kMaxSeen, 1);
  std::string body_;
  LoadFn load_;
};

TEST_F(DispatchFields, RefusesNaNAllocation) {
  expect_f64_refused(body_, load_, "TaskEntry", "alloc", kNaN);
}

TEST_F(DispatchFields, RefusesNegativeAllocation) {
  expect_f64_refused(body_, load_, "TaskEntry", "alloc", -1.0, 2);
}

TEST_F(DispatchFields, RefusesNaNFailedAttemptLog) {
  expect_f64_refused(body_, load_, "AttemptLog", "runtime_s", kNaN);
}

TEST_F(DispatchFields, RefusesNegativeFailedAttemptLog) {
  expect_f64_refused(body_, load_, "AttemptLog", "alloc", -1.0, 1);
}

TEST_F(DispatchFields, RefusesBoolByteOtherThanZeroOrOne) {
  expect_refused(body_, load_,
                 find_leaf(body_, load_, "TaskEntry", "submitted", 2), 2,
                 "TaskEntry", "submitted");
}

// --------------------------------------------------------- WasteAccounting

class AccountingFields : public ::testing::Test {
 protected:
  AccountingFields() {
    tora::core::TaskUsage u;
    u.category = "c";
    u.peak = ResourceVector{2.0, 1000.0, 100.0};
    u.final_alloc = ResourceVector{4.0, 2000.0, 100.0};
    u.final_runtime_s = 10.0;
    tora::core::WasteAccounting acc;
    acc.add(u);
    ByteWriter w;
    acc.save(w);
    body_ = w.take();
  }

  std::string body_;
  LoadFn load_ = [](ByteReader& r) {
    tora::core::WasteAccounting fresh;
    fresh.load(r);
  };
};

TEST_F(AccountingFields, RefusesNaNBreakdown) {
  expect_f64_refused(body_, load_, "WasteBreakdown", "allocation", kNaN);
}

TEST_F(AccountingFields, RefusesNegativeBreakdown) {
  expect_f64_refused(body_, load_, "WasteBreakdown", "internal_fragmentation",
                     -1.0, 5);
}

// ------------------------------------------------------ ReliabilityTracker

class ReliabilityFields : public ::testing::Test {
 protected:
  ReliabilityFields() {
    tora::core::resilience::ResilienceConfig cfg;
    cfg.reliability = true;
    tora::core::resilience::ReliabilityTracker tracker(cfg);
    tracker.on_success(1);
    tracker.on_offense(2);
    tracker.quarantine(5, 3.0);
    ByteWriter w;
    tracker.save(w);
    body_ = w.take();
  }

  std::string body_;
  LoadFn load_ = [](ByteReader& r) {
    tora::core::resilience::ReliabilityTracker fresh;
    fresh.load(r);
  };
};

TEST_F(ReliabilityFields, RefusesScoreOutsideUnitInterval) {
  for (double bad : {1.5, -0.25, kNaN}) {
    expect_f64_refused(body_, load_, "ReliabilityEntry", "score", bad, 1);
  }
}

TEST_F(ReliabilityFields, RefusesNonFiniteReleaseAt) {
  expect_f64_refused(body_, load_, "ReliabilityEntry", "release_at", kInf, 2);
}

// The count is the first "entries" value; the keys (1, 2, 5) follow.
TEST_F(ReliabilityFields, RefusesRepeatedWorkerId) {
  expect_refused(body_, load_,
                 find_leaf(body_, load_, "ReliabilityTracker", "entries", 2),
                 1, "ReliabilityTracker", "entries");
}

TEST_F(ReliabilityFields, RefusesDescendingWorkerIds) {
  expect_refused(body_, load_,
                 find_leaf(body_, load_, "ReliabilityTracker", "entries", 3),
                 0, "ReliabilityTracker", "entries");
}

// ----------------------------------------------------------- StormDetector

class StormFields : public ::testing::Test {
 protected:
  StormFields() {
    tora::core::resilience::ResilienceConfig cfg;
    cfg.storm_control = true;
    tora::core::resilience::StormDetector storms(cfg);
    for (double t : {1.0, 2.0, 3.0}) storms.on_eviction(t);
    ByteWriter w;
    storms.save(w);
    body_ = w.take();
  }

  std::string body_;
  LoadFn load_ = [](ByteReader& r) {
    tora::core::resilience::StormDetector fresh;
    fresh.load(r);
  };
};

TEST_F(StormFields, RefusesNonFiniteWindow) {
  for (double bad : {kNaN, -kInf}) {
    expect_f64_refused(body_, load_, "StormDetector", "window", bad, 2);
  }
}

// The count is the first "window" value; the times (1, 2, 3) follow.
TEST_F(StormFields, RefusesDescendingWindow) {
  expect_f64_refused(body_, load_, "StormDetector", "window", 0.5, 3);
}

// -------------------------------------------------------------- Simulation

/// A churning single-tenant run with deadlines and speculation, stopped
/// after enough events that attempts and duplicates are in flight.
class SimulationFields : public ::testing::Test {
 protected:
  static tora::sim::SimConfig config() {
    tora::sim::SimConfig cfg;
    cfg.churn.initial_workers = 4;
    cfg.churn.min_workers = 2;
    cfg.churn.max_workers = 6;
    cfg.churn.mean_interarrival_s = 20.0;
    cfg.churn.mean_lifetime_s = 60.0;
    cfg.submit_interval_s = 1.0;
    cfg.seed = 5;
    cfg.resilience.deadlines = true;
    cfg.resilience.speculation = true;
    cfg.resilience.min_records = 2;
    return cfg;
  }

  SimulationFields() {
    auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3);
    tora::sim::Simulation sim(tasks_, allocator, config());
    for (int i = 0; i < 80 && sim.step(); ++i) {
    }
    ByteWriter w;
    sim.save_state(w);
    body_ = w.take();
    load_ = [this](ByteReader& r) {
      auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3);
      tora::sim::Simulation fresh(tasks_, allocator, config());
      fresh.load_state(r);
    };
  }

  std::vector<TaskSpec> tasks_ = small_workload(40);
  std::string body_;
  LoadFn load_;
};

TEST_F(SimulationFields, RefusesNonFiniteOrNegativeClock) {
  for (double bad : {kNaN, kInf, -1.0}) {
    expect_f64_refused(body_, load_, "Simulation", "now", bad);
  }
}

TEST_F(SimulationFields, RefusesBadAttemptStartOrRuntime) {
  expect_f64_refused(body_, load_, "Timing", "attempt_start", -1.0, 3);
  expect_f64_refused(body_, load_, "Timing", "attempt_runtime", kInf, 3);
}

// A live duplicate carries its worker and start (it runs the primary's
// model runtime, so it stores none): a start that is not a clock value, or
// that lies after the snapshot's clock, and a worker that is not alive are
// refused.
TEST_F(SimulationFields, RefusesBadSpeculationStartOrRuntime) {
  // One category in which every sixth task runs 30x longer: those straggle
  // past the threshold and get duplicates.
  std::vector<TaskSpec> tasks = small_workload(60);
  for (TaskSpec& t : tasks) {
    t.category = "one";
    t.duration_s = t.id % 6 == 5 ? 300.0 : 10.0;
  }
  const LoadFn load = [&](ByteReader& r) {
    auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3);
    tora::sim::Simulation fresh(tasks, allocator, config());
    fresh.load_state(r);
  };
  auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3);
  tora::sim::Simulation sim(tasks, allocator, config());
  for (int i = 0; i < 5000 && sim.speculation().live() == 0 && sim.step();
       ++i) {
  }
  ASSERT_GT(sim.speculation().live(), 0u);
  ByteWriter w;
  sim.save_state(w);
  const std::string body = w.take();
  ByteReader valid(body);
  EXPECT_NO_THROW(load(valid));
  for (double bad : {kNaN, -1.0}) {
    expect_f64_refused(body, load, "Duplicate", "start", bad);
  }
  const Leaf start = find_leaf(body, load, "Duplicate", "start");
  expect_refused(body, load, start, bits_of(1e12), "Speculation", "table");
  const Leaf worker = find_leaf(body, load, "Duplicate", "worker");
  expect_refused(body, load, worker, 1u << 30, "Speculation", "table");
}

TEST_F(SimulationFields, RefusesBadMakespan) {
  expect_f64_refused(body_, load_, "SimResult", "makespan_s", -1.0);
}

TEST_F(SimulationFields, RefusesBadIntegral) {
  expect_f64_refused(body_, load_, "SimResult", "committed_integral", kNaN);
  expect_f64_refused(body_, load_, "SimResult", "capacity_integral", -1.0, 2);
}

TEST_F(SimulationFields, RefusesAllZeroRngWords) {
  const Leaf first = find_leaf(body_, load_, "Simulation", "words");
  std::string bad = body_;
  bad.replace(first.offset, 32, 32, '\0');
  try {
    ByteReader r(bad);
    load_(r);
    ADD_FAILURE() << "loaded all-zero xoshiro words";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "Simulation") << e.what();
    EXPECT_EQ(e.field(), "words") << e.what();
  }
}

TEST_F(SimulationFields, RefusesNonFiniteCachedNormal) {
  expect_f64_refused(body_, load_, "Simulation", "cached_normal", kInf);
}

// --------------------------------------------------------- MultiTenantCore

TEST(MultiTenantFields, RefusesNonFiniteRunningAllocation) {
  const auto tasks_a = small_workload(6);
  const auto tasks_b = small_workload(4);
  auto alloc_a = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  auto alloc_b = tora::core::make_allocator(tora::core::kMaxSeen, 2);
  const auto make = [&](tora::core::TaskAllocator& a,
                        tora::core::TaskAllocator& b) {
    return tora::core::tenancy::MultiTenantCore(
        {{tasks_a, &a, {}}, {tasks_b, &b, {}}}, {},
        tora::core::tenancy::make_arbiter("drf"));
  };
  auto core = make(alloc_a, alloc_b);
  core.start();
  tora::tests::ScriptedDriver driver(
      [](std::uint64_t, const ResourceVector&) -> std::optional<std::uint64_t> {
        return 0;
      },
      [](std::uint64_t, std::uint64_t, const ResourceVector&) {},
      ResourceVector{16.0, 65536.0, 65536.0});
  core.dispatch_pass(driver);
  ByteWriter w;
  core.save_state(w);
  const std::string body = w.take();
  const LoadFn load = [&](ByteReader& r) {
    auto a = tora::core::make_allocator(tora::core::kMaxSeen, 1);
    auto b = tora::core::make_allocator(tora::core::kMaxSeen, 2);
    auto fresh = make(a, b);
    fresh.load_state(r);
  };
  for (double bad : {kNaN, kInf, -kInf}) {
    expect_f64_refused(body, load, "Tenant", "running_alloc", bad, 1);
  }
  // Releases leave float dust on either side of zero: no sign check.
  std::string dusty = body;
  const Leaf at = find_leaf(body, load, "Tenant", "running_alloc", 1);
  put_le(dusty, at.offset, bits_of(-1e-12), 8);
  ByteReader r(dusty);
  EXPECT_NO_THROW(load(r));
}

// ------------------------------------------------------- Allocator section

/// Two categories, both with created policies and completed history.
class AllocatorFields : public ::testing::Test {
 protected:
  AllocatorFields() {
    auto a = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 7);
    for (int i = 0; i < 6; ++i) {
      const std::string cat = i % 2 == 0 ? "x" : "y";
      a.allocate(cat);
      a.record_completion(cat, ResourceVector{1.0 + i, 100.0, 10.0});
    }
    ByteWriter w;
    tora::core::recovery::save_allocator(a, w);
    body_ = w.take();
  }

  std::string body_;
  LoadFn load_ = [](ByteReader& r) {
    auto fresh = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 7);
    tora::core::recovery::load_allocator(fresh, r);
  };
};

TEST_F(AllocatorFields, ValidBodyLoads) {
  ByteReader r(body_);
  EXPECT_NO_THROW(load_(r));
}

TEST_F(AllocatorFields, RefusesHistoryCategoryAtOrAboveTheCount) {
  for (std::uint64_t bad : {2u, 0xFFFFFFFFu}) {
    expect_refused(body_, load_,
                   find_leaf(body_, load_, "CompletionRecord", "category", 3),
                   bad, "CompletionRecord", "category");
  }
}

TEST_F(AllocatorFields, RefusesNaNPeak) {
  expect_f64_refused(body_, load_, "CompletionRecord", "peak", kNaN, 5);
}

TEST_F(AllocatorFields, RefusesNaNSignificance) {
  expect_f64_refused(body_, load_, "CompletionRecord", "significance", kNaN);
}

TEST_F(AllocatorFields, RefusesCreatedCategoryIdOutOfRange) {
  expect_refused(body_, load_,
                 find_leaf(body_, load_, "CreatedCategory", "id", 1), 2,
                 "CreatedCategory", "id");
}

TEST_F(AllocatorFields, RefusesRepeatedCreatedCategoryId) {
  expect_refused(body_, load_,
                 find_leaf(body_, load_, "CreatedCategory", "id", 1), 0,
                 "CreatedCategory", "id");
}

// --------------------------------------------------------------- Rng state

TEST(SamplerFields, RefusesAllZeroWordsAndNonFiniteCachedNormal) {
  auto a = tora::core::make_allocator(tora::core::kGreedyBucketing, 7);
  a.allocate("c");
  const tora::core::ResourcePolicy& policy =
      *a.policy_if_created(0, tora::core::ResourceKind::Cores);
  const std::string state = policy.sampler_state();
  const LoadFn load = [](ByteReader& r) {
    auto fresh = tora::core::make_allocator(tora::core::kGreedyBucketing, 7);
    fresh.allocate("c");
    std::string rest;
    while (!r.done()) rest.push_back(static_cast<char>(r.u8()));
    fresh.policy(0, tora::core::ResourceKind::Cores)
        .restore_sampler_state(rest);
  };
  std::string zero = state;
  zero.replace(0, 32, 32, '\0');
  try {
    ByteReader r(zero);
    load(r);
    ADD_FAILURE() << "restored all-zero xoshiro words";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "BucketingPolicy") << e.what();
    EXPECT_EQ(e.field(), "words") << e.what();
  }
  std::string nan = state;
  put_le(nan, 32, bits_of(kNaN), 8);
  try {
    ByteReader r(nan);
    load(r);
    ADD_FAILURE() << "restored a NaN cached normal";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "BucketingPolicy") << e.what();
    EXPECT_EQ(e.field(), "cached_normal") << e.what();
  }
}

}  // namespace
