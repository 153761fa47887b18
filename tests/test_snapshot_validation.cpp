// Snapshot sections must be refused, with a std::runtime_error naming the
// field, when a field is out of range: the DispatchCore body, the
// simulator's worker pool and the protocol manager's worker registry (which
// the dispatch pass and the placement index are rebuilt from), the record
// stores and runtime histogram behind every deadline tracker, and the
// tenancy arbiters. A count is refused before anything is allocated for
// it. Each case starts from a valid body and rewrites one field.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/record_store.hpp"
#include "core/registry.hpp"
#include "core/resilience/resilience.hpp"
#include "core/tenancy/arbiter.hpp"
#include "proto/manager.hpp"
#include "proto/worker_agent.hpp"
#include "scripted_driver.hpp"
#include "sim/worker_pool.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::lifecycle::DispatchCore;
using tora::util::ByteReader;
using tora::util::ByteWriter;

constexpr ResourceVector kCap{16.0, 65536.0, 65536.0, 0.0};
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void put_u64(std::string& body, std::size_t at, std::uint64_t v) {
  ASSERT_LE(at + 8, body.size());
  for (int i = 0; i < 8; ++i) {
    body[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void put_f64(std::string& body, std::size_t at, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(body, at, bits);
}

std::uint64_t get_u64(const std::string& body, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(body[at + i]);
  }
  return v;
}

/// `load` must throw std::runtime_error whose message names `field`.
void expect_refused(const std::function<void()>& load,
                    const std::string& field) {
  try {
    load();
    ADD_FAILURE() << "loaded a snapshot with a bad " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ DispatchCore

std::vector<TaskSpec> small_workload(std::size_t n) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = ResourceVector{1.0, 100.0, 100.0};
    tasks[i].duration_s = 1.0;
  }
  return tasks;
}

/// Six tasks: 0 and 1 Running on worker 0, 2..5 Queued in that order. No
/// task has failed attempts, so every entry serializes to kEntryBytes.
class DispatchBody : public ::testing::Test {
 protected:
  static constexpr std::size_t kTasks = 6;
  static constexpr std::size_t kEntryBytes = 72;
  static constexpr std::size_t kEntries = 8;
  static constexpr std::size_t kQueue = kEntries + kTasks * kEntryBytes;

  DispatchBody() {
    DispatchCore core(tasks_, allocator_, {});
    core.start();
    std::size_t placed = 0;
    tora::tests::ScriptedDriver driver(
        [&placed](std::uint64_t, const ResourceVector&)
            -> std::optional<std::uint64_t> {
          if (placed >= 2) return std::nullopt;
          return 0;
        },
        [&placed](std::uint64_t, std::uint64_t, const ResourceVector&) {
          ++placed;
        });
    core.dispatch_pass(driver);
    ByteWriter w;
    core.save_state(w);
    body_ = w.take();
  }

  void load(const std::string& body) {
    auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 1);
    DispatchCore fresh(tasks_, allocator, {});
    ByteReader r(body);
    fresh.load_state(r);
  }

  std::vector<TaskSpec> tasks_ = small_workload(kTasks);
  tora::core::TaskAllocator allocator_ =
      tora::core::make_allocator(tora::core::kMaxSeen, 1);
  std::string body_;
};

TEST_F(DispatchBody, ValidBodyLoads) {
  ASSERT_EQ(get_u64(body_, kQueue), 4u);
  EXPECT_NO_THROW(load(body_));
}

TEST_F(DispatchBody, RefusesPhaseAboveFatal) {
  std::string body = body_;
  body[kEntries + 3 * kEntryBytes] = 9;
  expect_refused([&] { load(body); }, "phase");
}

TEST_F(DispatchBody, RefusesFailedAttemptCountBeyondPayload) {
  std::string body = body_;
  put_u64(body, kEntries + 2 * kEntryBytes + 64, std::uint64_t{1} << 40);
  expect_refused([&] { load(body); }, "failed_attempts");
}

TEST_F(DispatchBody, RefusesReadyQueueCountBeyondPayload) {
  std::string body = body_;
  put_u64(body, kQueue, std::uint64_t{1} << 40);
  expect_refused([&] { load(body); }, "ready_queue: count");
}

TEST_F(DispatchBody, RefusesReadyQueueIdBeyondTheTaskTable) {
  std::string body = body_;
  put_u64(body, kQueue + 8, 1000000);
  expect_refused([&] { load(body); }, "ready_queue: id");
}

TEST_F(DispatchBody, RefusesRepeatedReadyQueueId) {
  std::string body = body_;
  put_u64(body, kQueue + 16, get_u64(body, kQueue + 8));
  expect_refused([&] { load(body); }, "ready_queue: id");
}

TEST_F(DispatchBody, RefusesReadyQueueIdOfARunningTask) {
  std::string body = body_;
  put_u64(body, kQueue + 8, 0);
  expect_refused([&] { load(body); }, "ready_queue: id");
}

// ------------------------------------------------------ WorkerPool

/// Three workers (ids 0, 1, 2) with one running task each. Worker w's
/// record starts at kFirst + w * kWorkerBytes: id, capacity[4],
/// committed[4], running count, one running id.
class PoolBody : public ::testing::Test {
 protected:
  static constexpr std::size_t kFirst = 16;
  static constexpr std::size_t kWorkerBytes = 8 + 32 + 32 + 8 + 8;

  PoolBody() {
    tora::sim::WorkerPool pool(kCap);
    for (std::uint64_t w = 0; w < 3; ++w) {
      pool.add_worker();
      pool.start(w, 10 + w, ResourceVector{2.0, 1000.0, 1000.0});
    }
    ByteWriter w;
    pool.save_state(w);
    body_ = w.take();
  }

  static void load(const std::string& body) {
    tora::sim::WorkerPool pool(kCap);
    ByteReader r(body);
    pool.load_state(r);
  }

  static std::size_t at(std::size_t worker, std::size_t field) {
    return kFirst + worker * kWorkerBytes + field;
  }
  static constexpr std::size_t kCapacity = 8;
  static constexpr std::size_t kCommitted = 40;

  std::string body_;
};

TEST_F(PoolBody, ValidBodyLoads) { EXPECT_NO_THROW(load(body_)); }

TEST_F(PoolBody, RefusesDuplicateWorkerId) {
  std::string body = body_;
  put_u64(body, at(1, 0), 0);
  expect_refused([&] { load(body); }, "WorkerPool.workers");
}

TEST_F(PoolBody, RefusesDescendingWorkerIds) {
  std::string body = body_;
  put_u64(body, at(0, 0), 2);
  put_u64(body, at(2, 0), 0);
  expect_refused([&] { load(body); }, "WorkerPool.workers");
}

TEST_F(PoolBody, RefusesInfiniteCapacity) {
  std::string body = body_;
  put_f64(body, at(1, kCapacity + 8), kInf);
  expect_refused([&] { load(body); }, "capacity");
}

TEST_F(PoolBody, RefusesZeroCapacity) {
  std::string body = body_;
  put_f64(body, at(2, kCapacity), 0.0);
  expect_refused([&] { load(body); }, "capacity");
}

TEST_F(PoolBody, RefusesNaNCommitment) {
  std::string body = body_;
  put_f64(body, at(0, kCommitted + 8), kNaN);
  expect_refused([&] { load(body); }, "committed");
}

TEST_F(PoolBody, RefusesNegativeCommitment) {
  std::string body = body_;
  put_f64(body, at(1, kCommitted), -1.0);
  expect_refused([&] { load(body); }, "committed");
}

TEST_F(PoolBody, RefusesCommitmentAboveCapacity) {
  std::string body = body_;
  put_f64(body, at(2, kCommitted + 16), 65536.0 * 1.001);
  expect_refused([&] { load(body); }, "committed");
}

// ------------------------------------------------------ ProtocolManager

/// A manager with three registered workers announcing kAnnounced (distinct
/// from the allocator's capacity, so its bytes locate the worker section),
/// two ticks into a run so that tasks are committed.
class RegistryBody : public ::testing::Test {
 protected:
  static constexpr ResourceVector kAnnounced{13.25, 50001.5, 40002.5, 0.0};
  static constexpr std::size_t kWorkers = 3;
  // Per worker: id, capacity[4], committed[4], last seen, failures.
  static constexpr std::size_t kWorkerBytes = 8 + 32 + 32 + 8 + 8;

  RegistryBody() : tasks_(small_workload(12)) {
    for (std::size_t i = 0; i < kWorkers; ++i) {
      links_.push_back(std::make_shared<tora::proto::DuplexLink>());
    }
    auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 1);
    tora::proto::ProtocolManager manager(tasks_, allocator, links_);
    std::vector<tora::proto::WorkerAgent> agents;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      agents.emplace_back(i, kAnnounced, tasks_, links_[i]);
      agents.back().announce();
    }
    manager.start();
    manager.pump();
    manager.pump();
    body_ = manager.snapshot_body();
    // Worker 0's capacity is the first occurrence of the announced bytes.
    ByteWriter pattern;
    for (auto k : tora::core::kAllResources) pattern.f64(kAnnounced[k]);
    const std::size_t cap0 = body_.find(pattern.take());
    EXPECT_NE(cap0, std::string::npos);
    first_ = cap0 - 8;
  }

  void load(const std::string& body) {
    auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 1);
    tora::proto::ProtocolManager fresh(tasks_, allocator, links_);
    fresh.begin_replay(body);
  }

  std::size_t at(std::size_t worker, std::size_t field) const {
    return first_ + worker * kWorkerBytes + field;
  }
  static constexpr std::size_t kCapacity = 8;
  static constexpr std::size_t kCommitted = 40;

  std::vector<TaskSpec> tasks_;
  std::vector<tora::proto::DuplexLinkPtr> links_;
  std::string body_;
  std::size_t first_ = 0;
};

TEST_F(RegistryBody, ValidBodyLoads) {
  ASSERT_EQ(get_u64(body_, first_ - 8), kWorkers);
  for (std::uint64_t w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(get_u64(body_, at(w, 0)), w);
  }
  EXPECT_NO_THROW(load(body_));
}

TEST_F(RegistryBody, RefusesDuplicateWorkerId) {
  std::string body = body_;
  put_u64(body, at(2, 0), 1);
  expect_refused([&] { load(body); }, "ProtocolManager.workers");
}

TEST_F(RegistryBody, RefusesInfiniteCapacity) {
  std::string body = body_;
  put_f64(body, at(0, kCapacity), kInf);
  expect_refused([&] { load(body); }, "capacity");
}

TEST_F(RegistryBody, RefusesNaNCommitment) {
  std::string body = body_;
  put_f64(body, at(1, kCommitted + 8), kNaN);
  expect_refused([&] { load(body); }, "committed");
}

TEST_F(RegistryBody, RefusesNegativeCommitment) {
  std::string body = body_;
  put_f64(body, at(0, kCommitted), -1.0);
  expect_refused([&] { load(body); }, "committed");
}

TEST_F(RegistryBody, RefusesCommitmentAboveCapacity) {
  std::string body = body_;
  put_f64(body, at(2, kCommitted + 16), 40002.5 * 1.001);
  expect_refused([&] { load(body); }, "committed");
}

// ------------------------------------------------------ RecordStore

/// A merged run of three records and one staged record. The merged count
/// sits at 0, merged record i at kMerged + 16 i (value, then
/// significance), the staged count at kStagedCount and the staged record
/// after it.
class StoreBody : public ::testing::Test {
 protected:
  static constexpr std::size_t kMerged = 8;
  static constexpr std::size_t kStagedCount = kMerged + 3 * 16;
  static constexpr std::size_t kStaged = kStagedCount + 8;

  StoreBody() {
    tora::core::RecordStore store;
    store.add(2.0, 1.0);
    store.add(1.0, 3.0);
    store.add(4.0, 2.0);
    store.flush();
    store.add(3.0, 1.0);
    ByteWriter w;
    store.save(w);
    body_ = w.take();
  }

  static void load(const std::string& body) {
    tora::core::RecordStore store;
    ByteReader r(body);
    store.load(r);
  }

  std::string body_;
};

TEST_F(StoreBody, ValidBodyLoads) {
  ASSERT_EQ(get_u64(body_, 0), 3u);
  ASSERT_EQ(get_u64(body_, kStagedCount), 1u);
  tora::core::RecordStore store;
  ByteReader r(body_);
  store.load(r);
  ByteWriter w;
  store.save(w);
  EXPECT_EQ(w.bytes(), body_);
}

TEST_F(StoreBody, RefusesMergedCountBeyondPayload) {
  for (std::uint64_t n : {std::uint64_t{1} << 24, std::uint64_t{1} << 40}) {
    std::string body = body_;
    put_u64(body, 0, n);
    expect_refused([&] { load(body); }, "merged: count");
  }
}

TEST_F(StoreBody, RefusesStagedCountBeyondPayload) {
  std::string body = body_;
  put_u64(body, kStagedCount, std::uint64_t{1} << 40);
  expect_refused([&] { load(body); }, "staged: count");
}

TEST_F(StoreBody, RefusesNaNValue) {
  std::string body = body_;
  put_f64(body, kMerged + 16, kNaN);
  expect_refused([&] { load(body); }, "Record.value");
}

TEST_F(StoreBody, RefusesNegativeStagedValue) {
  std::string body = body_;
  put_f64(body, kStaged, -1.0);
  expect_refused([&] { load(body); }, "Record.value");
}

TEST_F(StoreBody, RefusesInfiniteSignificance) {
  std::string body = body_;
  put_f64(body, kMerged + 8, kInf);
  expect_refused([&] { load(body); }, "Record.significance");
}

TEST_F(StoreBody, RefusesNegativeStagedSignificance) {
  std::string body = body_;
  put_f64(body, kStaged + 8, -0.5);
  expect_refused([&] { load(body); }, "Record.significance");
}

TEST_F(StoreBody, RefusesUnsortedMergedRun) {
  std::string body = body_;
  put_f64(body, kMerged + 32, 1.5);  // 1, 2, 1.5
  expect_refused([&] { load(body); }, "sorted");
}

// ------------------------------------------------------ RuntimeHistogram

TEST(HistogramBody, RefusesCategoryCountBeyondPayload) {
  tora::core::resilience::RuntimeHistogram hist;
  hist.observe(0, 5.0);
  hist.observe(1, 7.0);
  ByteWriter w;
  hist.save(w);
  const std::string valid = w.take();
  {
    tora::core::resilience::RuntimeHistogram fresh;
    ByteReader r(valid);
    EXPECT_NO_THROW(fresh.load(r));
    EXPECT_EQ(fresh.records(1), 1u);
  }
  for (std::uint64_t n : {std::uint64_t{1} << 24, std::uint64_t{1} << 40}) {
    std::string body = valid;
    put_u64(body, 0, n);
    expect_refused(
        [&] {
          tora::core::resilience::RuntimeHistogram fresh;
          ByteReader r(body);
          fresh.load(r);
        },
        "per_category: count");
  }
  // A bad record inside one category's store is the store's refusal.
  // Category 0's store holds no merged record and one staged record.
  ASSERT_EQ(get_u64(valid, 8), 0u);
  ASSERT_EQ(get_u64(valid, 16), 1u);
  std::string body = valid;
  put_f64(body, 24, kNaN);
  expect_refused(
      [&] {
        tora::core::resilience::RuntimeHistogram fresh;
        ByteReader r(body);
        fresh.load(r);
      },
      "Record.value");
}

// ------------------------------------------------------ Arbiters

/// Each arbiter after one pass over two tenants, one grant each. The base
/// body is a grant-counter count and one u64 per tenant; Karma appends a
/// credit count and one f64 credit per tenant.
std::string arbiter_body(std::string_view name) {
  auto arbiter = tora::core::tenancy::make_arbiter(name);
  std::vector<tora::core::tenancy::TenantView> views(2);
  views[0].id = 0;
  views[0].backlog = 3;
  views[1].id = 1;
  views[1].weight = 3.0;
  views[1].backlog = 3;
  arbiter->begin(views, kCap);
  for (int i = 0; i < 2; ++i) {
    const auto t = arbiter->next();
    EXPECT_TRUE(t.has_value());
    arbiter->feedback(*t, 1, ResourceVector{2.0, 1000.0, 1000.0});
  }
  arbiter->settle();
  ByteWriter w;
  arbiter->save(w);
  return w.take();
}

void load_arbiter(std::string_view name, const std::string& body) {
  auto arbiter = tora::core::tenancy::make_arbiter(name);
  ByteReader r(body);
  arbiter->load(r);
}

TEST(ArbiterBody, RefusesGrantCounterCountBeyondPayload) {
  for (const std::string& name : tora::core::tenancy::arbiter_names()) {
    const std::string valid = arbiter_body(name);
    ASSERT_EQ(get_u64(valid, 0), 2u) << name;
    EXPECT_NO_THROW(load_arbiter(name, valid)) << name;
    std::string body = valid;
    put_u64(body, 0, std::uint64_t{1} << 40);
    expect_refused([&] { load_arbiter(name, body); }, "grants: count");
  }
}

TEST(ArbiterBody, RefusesKarmaCreditCountBeyondPayload) {
  constexpr std::size_t kCredits = 8 + 2 * 8;
  std::string body = arbiter_body("karma");
  ASSERT_EQ(get_u64(body, kCredits), 2u);
  put_u64(body, kCredits, std::uint64_t{1} << 40);
  expect_refused([&] { load_arbiter("karma", body); }, "credits: count");
}

TEST(ArbiterBody, RefusesNonFiniteKarmaCredit) {
  constexpr std::size_t kCredits = 8 + 2 * 8;
  for (double bad : {kNaN, kInf, -kInf}) {
    std::string body = arbiter_body("karma");
    put_f64(body, kCredits + 8 + 8, bad);
    expect_refused([&] { load_arbiter("karma", body); }, "credit");
  }
}

}  // namespace
