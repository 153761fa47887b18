// Structure-aware snapshot fuzzing, in the style of test_fuzz_invariants:
// valid bodies of a Simulation stopped mid-run (one and two tenants,
// resilience on) and of a journaled ProtocolManager (karma arbiter, two
// tenants) are traced through their loads (core::snapshot::trace walks the
// field lists), and one field at a time is set to an edge value of its
// kind. Every load must either succeed or throw core::SnapshotError naming
// the mutated field; no other exception may escape.
//
// The seed is gtest's random seed: 0 under a plain run, so tier-1 stays
// deterministic; `--gtest_shuffle --gtest_repeat=N` draws a fresh seed per
// repeat (printed by gtest, replayed with --gtest_random_seed).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/snapshot_fields.hpp"
#include "core/tenancy/arbiter.hpp"
#include "proto/manager.hpp"
#include "proto/worker_agent.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::SnapshotError;
using tora::core::TaskSpec;
using tora::core::snapshot::Kind;
using tora::core::snapshot::Leaf;
using tora::util::ByteReader;
using tora::util::ByteWriter;

using LoadFn = std::function<void(ByteReader&)>;

std::vector<TaskSpec> workload(std::size_t n, const char* tag) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = std::string(tag) + (i % 3 == 0 ? "wide" : "narrow");
    tasks[i].demand = i % 3 == 0 ? ResourceVector{2.0, 2500.0, 300.0}
                                 : ResourceVector{1.0, 600.0, 60.0};
    tasks[i].duration_s = 4.0 + static_cast<double>(i % 5);
    tasks[i].peak_fraction = 0.6;
  }
  return tasks;
}

tora::core::resilience::ResilienceConfig resilience() {
  tora::core::resilience::ResilienceConfig cfg;
  cfg.deadlines = true;
  cfg.speculation = true;
  cfg.reliability = true;
  cfg.storm_control = true;
  cfg.min_records = 2;
  cfg.storm_window = 16.0;
  cfg.storm_enter = 2;
  return cfg;
}

/// The edge values of a leaf's kind, as the raw little-endian word written
/// over it (doubles as their bits).
std::vector<std::uint64_t> edges(const Leaf& leaf) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (leaf.kind) {
    case Kind::F64:
      return {bits(std::numeric_limits<double>::quiet_NaN()), bits(kInf),
              bits(-kInf), bits(-1.0)};
    case Kind::U64:
      return {~std::uint64_t{0}};
    case Kind::U32:
    case Kind::Length:
      return {0xFFFFFFFFu};
    case Kind::Count:
      return {std::uint64_t{1} << 40, ~std::uint64_t{0}};
    case Kind::Bool:
      return {2};
    case Kind::Enum:
      return {leaf.max + 1};
  }
  return {};
}

std::size_t width(Kind kind) {
  switch (kind) {
    case Kind::Bool:
    case Kind::Enum:
      return 1;
    case Kind::U32:
    case Kind::Length:
      return 4;
    default:
      return 8;
  }
}

/// Mutates one occurrence (picked by `rng`) of every distinct
/// (section, field, kind) the load reads, with one of its kind's edge
/// values, and checks the outcome. Returns the mutations tried.
std::size_t fuzz_body(const std::string& body, const LoadFn& load,
                      tora::util::Rng& rng) {
  const std::vector<Leaf> leaves = tora::core::snapshot::trace(body, load);
  std::map<std::tuple<std::string, std::string, Kind>, std::vector<Leaf>>
      by_field;
  for (const Leaf& leaf : leaves) {
    by_field[{leaf.section, leaf.field, leaf.kind}].push_back(leaf);
  }
  std::size_t tried = 0;
  for (const auto& [key, occurrences] : by_field) {
    const Leaf& leaf =
        occurrences[rng.uniform_int(0, occurrences.size() - 1)];
    const std::vector<std::uint64_t> values = edges(leaf);
    const std::uint64_t v = values[rng.uniform_int(0, values.size() - 1)];
    std::string bad = body;
    for (std::size_t i = 0; i < width(leaf.kind); ++i) {
      bad[leaf.offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    ++tried;
    try {
      ByteReader r(bad);
      load(r);
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), leaf.section)
          << e.what() << " (mutated " << leaf.section << "." << leaf.field
          << " at byte " << leaf.offset << " to " << v << ")";
      EXPECT_EQ(e.field(), leaf.field)
          << e.what() << " (mutated " << leaf.section << "." << leaf.field
          << " at byte " << leaf.offset << " to " << v << ")";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped refusal " << e.what() << " (mutated "
                    << leaf.section << "." << leaf.field << " at byte "
                    << leaf.offset << " to " << v << ")";
    }
  }
  return tried;
}

std::uint64_t seed() {
  return static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
}

// ---------------------------------------------------------------- Simulation

class SnapshotFuzzSimulation : public ::testing::Test {
 protected:
  static tora::sim::SimConfig config() {
    tora::sim::SimConfig cfg;
    cfg.churn.initial_workers = 4;
    cfg.churn.min_workers = 2;
    cfg.churn.max_workers = 6;
    cfg.churn.mean_interarrival_s = 20.0;
    cfg.churn.mean_lifetime_s = 60.0;
    cfg.churn.storm_interval_s = 30.0;
    cfg.churn.storm_duration_s = 5.0;
    cfg.churn.storm_evict_fraction = 0.5;
    cfg.submit_interval_s = 1.0;
    cfg.seed = 9;
    cfg.resilience = resilience();
    cfg.resilience.reliability = false;  // the simulator does not score
    return cfg;
  }

  /// A simulation of `tenants` tenants over allocators the caller keeps.
  std::unique_ptr<tora::sim::Simulation> make(
      std::vector<tora::core::TaskAllocator>& allocators) const {
    std::vector<tora::core::tenancy::TenantInput> in;
    for (std::size_t t = 0; t < allocators.size(); ++t) {
      in.push_back({tasks_[t], &allocators[t], {}});
    }
    return std::make_unique<tora::sim::Simulation>(
        std::move(in), config(),
        tora::core::tenancy::make_arbiter(allocators.size() == 1 ? "fifo"
                                                                 : "drf"));
  }

  static std::vector<tora::core::TaskAllocator> allocators(int tenants) {
    std::vector<tora::core::TaskAllocator> out;
    for (int t = 0; t < tenants; ++t) {
      out.push_back(tora::core::make_allocator(
          tora::core::kGreedyBucketing, 7 + static_cast<std::uint64_t>(t)));
    }
    return out;
  }

  std::vector<std::vector<TaskSpec>> tasks_ = {workload(24, "a"),
                                               workload(18, "b")};

  /// Steps a `tenants`-tenant run, snapshots it and fuzzes the body.
  void fuzz(int tenants) {
    auto held = allocators(tenants);
    auto sim = make(held);
    for (int i = 0; i < 90 && sim->step(); ++i) {
    }
    ByteWriter w;
    sim->save_state(w);
    const std::string body = w.take();
    const LoadFn load = [&](ByteReader& r) {
      auto fresh_allocators = allocators(tenants);
      auto fresh = make(fresh_allocators);
      fresh->load_state(r);
    };
    tora::util::Rng rng(seed() * 2 + static_cast<std::uint64_t>(tenants));
    EXPECT_GT(fuzz_body(body, load, rng), 50u);
  }
};

TEST_F(SnapshotFuzzSimulation, OneTenantEdgeValuesLoadOrAreRefusedByName) {
  fuzz(1);
}

TEST_F(SnapshotFuzzSimulation, TwoTenantEdgeValuesLoadOrAreRefusedByName) {
  fuzz(2);
}

// ----------------------------------------------------------- ProtocolManager

TEST(SnapshotFuzzManager, EdgeValuesLoadOrAreRefusedByName) {
  const auto tasks_a = workload(16, "a");
  const auto tasks_b = workload(12, "b");
  std::vector<TaskSpec> ground_truth = tasks_a;
  for (TaskSpec t : tasks_b) {
    t.id += tasks_a.size();
    ground_truth.push_back(std::move(t));
  }
  std::vector<tora::proto::DuplexLinkPtr> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(std::make_shared<tora::proto::DuplexLink>());
  }
  tora::proto::LivenessConfig live;
  live.resilience = resilience();
  const auto make = [&](tora::core::TaskAllocator& a,
                        tora::core::TaskAllocator& b) {
    return std::make_unique<tora::proto::ProtocolManager>(
        std::vector<tora::core::tenancy::TenantInput>{{tasks_a, &a, {}},
                                                      {tasks_b, &b, {}}},
        links, live, tora::core::tenancy::make_arbiter("karma"));
  };

  auto alloc_a = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 3);
  auto alloc_b = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 4);
  tora::core::recovery::MemStorage storage;
  tora::core::recovery::RecoveryLog log(storage);
  log.open_fresh();
  auto manager = make(alloc_a, alloc_b);
  tora::core::recovery::RecoveryConfig recovery;
  recovery.snapshot_every_ticks = 4;
  manager->attach_recovery(&log, nullptr, recovery, nullptr);
  std::vector<tora::proto::WorkerAgent> agents;
  for (std::uint64_t i = 0; i < links.size(); ++i) {
    agents.emplace_back(i, ResourceVector{4.0, 8000.0, 8000.0}, ground_truth,
                        links[i]);
    agents.back().announce();
  }
  manager->start();
  for (int round = 0; round < 7; ++round) {
    manager->pump();
    for (auto& agent : agents) agent.pump();
  }
  const std::string body = manager->snapshot_body();
  const LoadFn load = [&](ByteReader& r) {
    auto a = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 3);
    auto b = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 4);
    auto fresh = make(a, b);
    std::string rest(r.remaining(), '\0');
    for (char& c : rest) c = static_cast<char>(r.u8());
    fresh->begin_replay(rest);
  };
  tora::util::Rng rng(seed() * 2 + 7);
  EXPECT_GT(fuzz_body(body, load, rng), 50u);
}

}  // namespace
