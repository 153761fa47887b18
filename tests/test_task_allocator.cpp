#include "core/task_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/bucketing_policy.hpp"
#include "core/registry.hpp"

namespace {

using tora::core::AllocatorConfig;
using tora::core::ExplorationConfig;
using tora::core::make_allocator;
using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskAllocator;

constexpr ResourceVector kCapacity{16.0, 65536.0, 65536.0, 0.0};

TEST(TaskAllocator, BucketingStartsInExploration) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  EXPECT_TRUE(a.exploring("cat"));
  const ResourceVector alloc = a.allocate("cat");
  EXPECT_DOUBLE_EQ(alloc.cores(), 1.0);
  EXPECT_DOUBLE_EQ(alloc.memory_mb(), 1024.0);
  EXPECT_DOUBLE_EQ(alloc.disk_mb(), 1024.0);
}

TEST(TaskAllocator, BaselineExploresWithWholeMachine) {
  auto a = make_allocator(tora::core::kMaxSeen, 1);
  const ResourceVector alloc = a.allocate("cat");
  EXPECT_DOUBLE_EQ(alloc.cores(), 16.0);
  EXPECT_DOUBLE_EQ(alloc.memory_mb(), 65536.0);
}

TEST(TaskAllocator, LeavesExplorationAfterMinRecords) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(a.exploring("cat"));
    a.record_completion("cat", {0.5, 300.0, 50.0});
  }
  EXPECT_FALSE(a.exploring("cat"));
  const ResourceVector alloc = a.allocate("cat");
  // All records identical -> a single bucket whose rep is the value.
  EXPECT_DOUBLE_EQ(alloc.cores(), 0.5);
  EXPECT_DOUBLE_EQ(alloc.memory_mb(), 300.0);
  EXPECT_DOUBLE_EQ(alloc.disk_mb(), 50.0);
}

TEST(TaskAllocator, BaselinePredictsAfterOneRecord) {
  auto a = make_allocator(tora::core::kMaxSeen, 1);
  a.record_completion("cat", {2.0, 306.0, 306.0});
  EXPECT_FALSE(a.exploring("cat"));
  const ResourceVector alloc = a.allocate("cat");
  EXPECT_DOUBLE_EQ(alloc.cores(), 2.0);       // cores width 1
  EXPECT_DOUBLE_EQ(alloc.memory_mb(), 500.0); // 250-wide rounding
}

TEST(TaskAllocator, CategoriesAreIndependent) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  for (int i = 0; i < 10; ++i) a.record_completion("small", {1.0, 100.0, 10.0});
  EXPECT_FALSE(a.exploring("small"));
  EXPECT_TRUE(a.exploring("big"));
  // "big" still explores with the default allocation.
  EXPECT_DOUBLE_EQ(a.allocate("big").memory_mb(), 1024.0);
  EXPECT_DOUBLE_EQ(a.allocate("small").memory_mb(), 100.0);
  EXPECT_EQ(a.category_count(), 2u);
}

TEST(TaskAllocator, ExplorationRetryDoublesExceededDimOnly) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  const ResourceVector failed{1.0, 1024.0, 1024.0, 0.0};
  // Memory exceeded (bit 1).
  const ResourceVector next = a.allocate_retry("cat", failed, 2u);
  EXPECT_DOUBLE_EQ(next.cores(), 1.0);
  EXPECT_DOUBLE_EQ(next.memory_mb(), 2048.0);
  EXPECT_DOUBLE_EQ(next.disk_mb(), 1024.0);
}

TEST(TaskAllocator, RetryAllDimensions) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  const ResourceVector failed{1.0, 1024.0, 1024.0, 0.0};
  const ResourceVector next = a.allocate_retry("cat", failed, 7u);
  EXPECT_DOUBLE_EQ(next.cores(), 2.0);
  EXPECT_DOUBLE_EQ(next.memory_mb(), 2048.0);
  EXPECT_DOUBLE_EQ(next.disk_mb(), 2048.0);
}

TEST(TaskAllocator, RetryRejectsEmptyMask) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  EXPECT_THROW(a.allocate_retry("cat", {1.0, 1.0, 1.0}, 0u),
               std::invalid_argument);
}

TEST(TaskAllocator, RetryClampsAtCapacity) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  const ResourceVector failed{1.0, 60000.0, 1024.0, 0.0};
  const ResourceVector next = a.allocate_retry("cat", failed, 2u);
  EXPECT_DOUBLE_EQ(next.memory_mb(), 65536.0);  // clamped, not 120000
  // At capacity, a further retry cannot grow: callers detect this.
  const ResourceVector stuck = a.allocate_retry("cat", next, 2u);
  EXPECT_DOUBLE_EQ(stuck.memory_mb(), 65536.0);
}

TEST(TaskAllocator, PostExplorationRetryUsesPolicy) {
  auto a = make_allocator(tora::core::kMaxSeen, 1);
  a.record_completion("cat", {1.0, 700.0, 100.0});
  // Memory failure at 500: Max Seen escalates to round_up(700) = 750.
  const ResourceVector next =
      a.allocate_retry("cat", {1.0, 500.0, 250.0, 0.0}, 2u);
  EXPECT_DOUBLE_EQ(next.memory_mb(), 750.0);
}

TEST(TaskAllocator, SignificanceDefaultsToMonotoneCounter) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  for (int i = 0; i < 12; ++i) {
    a.record_completion("cat", {1.0, 100.0 + i, 10.0});
  }
  // Inspect the memory policy's records: significances must increase.
  auto& pol = dynamic_cast<tora::core::BucketingPolicy&>(
      a.policy("cat", ResourceKind::MemoryMB));
  double prev = 0.0;
  double max_sig = 0.0;
  for (const auto& r : pol.records()) {
    max_sig = std::max(max_sig, r.significance);
  }
  EXPECT_GE(max_sig, 12.0);
  (void)prev;
}

TEST(TaskAllocator, ExplicitSignificanceIsRespected) {
  auto a = make_allocator(tora::core::kGreedyBucketing, 1);
  a.record_completion("cat", {1.0, 100.0, 10.0}, 77.0);
  auto& pol = dynamic_cast<tora::core::BucketingPolicy&>(
      a.policy("cat", ResourceKind::MemoryMB));
  ASSERT_EQ(pol.records().size(), 1u);
  EXPECT_DOUBLE_EQ(pol.records()[0].significance, 77.0);
}

TEST(TaskAllocator, RecordsForCountsPerCategory) {
  auto a = make_allocator(tora::core::kExhaustiveBucketing, 1);
  EXPECT_EQ(a.records_for("x"), 0u);
  a.record_completion("x", {1.0, 1.0, 1.0});
  a.record_completion("x", {1.0, 1.0, 1.0});
  a.record_completion("y", {1.0, 1.0, 1.0});
  EXPECT_EQ(a.records_for("x"), 2u);
  EXPECT_EQ(a.records_for("y"), 1u);
}

TEST(TaskAllocator, RejectsNullFactory) {
  EXPECT_THROW(TaskAllocator("x", nullptr, AllocatorConfig{}),
               std::invalid_argument);
}

TEST(TaskAllocator, RejectsNonPositiveCapacity) {
  AllocatorConfig cfg;
  cfg.worker_capacity = ResourceVector{0.0, 1.0, 1.0};
  EXPECT_THROW(
      TaskAllocator("x",
                    tora::core::make_policy_factory(
                        tora::core::kGreedyBucketing, 1),
                    cfg),
      std::invalid_argument);
}

TEST(TaskAllocator, AllPolicyNamesConstructible) {
  for (const auto& name : tora::core::all_policy_names()) {
    auto a = make_allocator(name, 3);
    EXPECT_EQ(a.policy_name(), name);
    (void)a.allocate("c");
    a.record_completion("c", {1.0, 500.0, 100.0});
  }
}

TEST(TaskAllocator, RejectsTimeManagedWithoutTimeCapacity) {
  // The paper's future-work extension: managing TimeS requires positive
  // time capacity — caught at construction, not as a clamp-to-zero later.
  AllocatorConfig cfg;  // default worker_capacity has time_s = 0
  cfg.managed.push_back(ResourceKind::TimeS);
  try {
    TaskAllocator a("x",
                    tora::core::make_policy_factory(
                        tora::core::kGreedyBucketing, 1),
                    cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("worker_capacity"),
              std::string::npos);
  }
}

TEST(TaskAllocator, RejectsTimeManagedWithoutTimeExplorationDefault) {
  AllocatorConfig cfg;
  cfg.managed.push_back(ResourceKind::TimeS);
  cfg.worker_capacity = ResourceVector{16.0, 65536.0, 65536.0, 3600.0};
  // FixedDefault exploration still has default_alloc.time_s == 0.
  ASSERT_EQ(cfg.exploration.mode, ExplorationConfig::Mode::FixedDefault);
  try {
    TaskAllocator a("x",
                    tora::core::make_policy_factory(
                        tora::core::kGreedyBucketing, 1),
                    cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("default_alloc"), std::string::npos);
  }
  // WholeMachine exploration never hands out the default: accepted.
  cfg.exploration.mode = ExplorationConfig::Mode::WholeMachine;
  EXPECT_NO_THROW(TaskAllocator(
      "x", tora::core::make_policy_factory(tora::core::kMaxSeen, 1), cfg));
}

TEST(TaskAllocator, RejectsEmptyManagedSetAndZeroMinRecords) {
  AllocatorConfig cfg;
  cfg.managed.clear();
  EXPECT_THROW(
      TaskAllocator("x",
                    tora::core::make_policy_factory(
                        tora::core::kGreedyBucketing, 1),
                    cfg),
      std::invalid_argument);
  AllocatorConfig cfg2;
  cfg2.exploration.min_records = 0;
  EXPECT_THROW(
      TaskAllocator("x",
                    tora::core::make_policy_factory(
                        tora::core::kGreedyBucketing, 1),
                    cfg2),
      std::invalid_argument);
}

TEST(TaskAllocator, InternedIdsMatchStringOverloads) {
  auto a = make_allocator(tora::core::kMaxSeen, 1);
  const auto id = a.intern("cat");
  EXPECT_EQ(a.intern("cat"), id);
  EXPECT_EQ(a.category_name(id), "cat");
  a.record_completion(id, {2.0, 306.0, 306.0});
  EXPECT_EQ(a.records_for("cat"), 1u);
  EXPECT_EQ(a.records_for(id), 1u);
  EXPECT_FALSE(a.exploring(id));
  // Id and string entry points hit the same per-category state.
  const ResourceVector by_id = a.allocate(id);
  const ResourceVector by_name = a.allocate("cat");
  EXPECT_DOUBLE_EQ(by_id.memory_mb(), by_name.memory_mb());
  EXPECT_DOUBLE_EQ(by_id.memory_mb(), 500.0);
}

TEST(TaskAllocator, HistoryReservedFromExpectedTasks) {
  AllocatorConfig cfg;
  cfg.expected_tasks = 4096;
  TaskAllocator a("max_seen",
                  tora::core::make_policy_factory(tora::core::kMaxSeen, 1),
                  cfg);
  EXPECT_GE(a.history().capacity(), 4096u);
  a.record_completion("c", {1.0, 100.0, 10.0});
  EXPECT_EQ(a.history().size(), 1u);
  // Disabled history makes the reservation a no-op.
  AllocatorConfig off;
  off.record_history = false;
  off.expected_tasks = 4096;
  TaskAllocator b("max_seen",
                  tora::core::make_policy_factory(tora::core::kMaxSeen, 1),
                  off);
  EXPECT_EQ(b.history().capacity(), 0u);
}

// A completion with a NaN, infinite or negative number anywhere is rejected
// before any policy observes it: the call throws and every policy's record
// count, the completed count, the history and the revision stay as they
// were after the one good completion.
constexpr double kBadNumbers[] = {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -1.0};
constexpr ResourceKind kManaged[] = {ResourceKind::Cores,
                                     ResourceKind::MemoryMB,
                                     ResourceKind::DiskMB};

void expect_one_completion(TaskAllocator& a) {
  EXPECT_EQ(a.records_for("c"), 1u);
  EXPECT_EQ(a.history().size(), 1u);
  EXPECT_EQ(a.revision(), 1u);
  for (ResourceKind k : kManaged) {
    EXPECT_EQ(a.policy("c", k).record_count(), 1u) << to_string(k);
  }
}

TEST(TaskAllocator, RejectsNonFinitePeakInAnyDimensionBeforeObserving) {
  for (const auto& name : tora::core::all_policy_names()) {
    for (ResourceKind bad_kind : kManaged) {
      for (double bad : kBadNumbers) {
        SCOPED_TRACE(name + " " + std::string(to_string(bad_kind)) + " " +
                     std::to_string(bad));
        auto a = make_allocator(name, 3);
        a.record_completion("c", {1.0, 500.0, 100.0});
        ResourceVector peak{1.0, 500.0, 100.0, 0.0};
        peak[bad_kind] = bad;
        EXPECT_THROW(a.record_completion("c", peak), std::invalid_argument);
        expect_one_completion(a);
      }
    }
  }
}

TEST(TaskAllocator, RejectsNonFiniteSignificanceBeforeObserving) {
  for (const auto& name : tora::core::all_policy_names()) {
    for (double bad : kBadNumbers) {
      SCOPED_TRACE(name + " " + std::to_string(bad));
      auto a = make_allocator(name, 3);
      a.record_completion("c", {1.0, 500.0, 100.0});
      EXPECT_THROW(a.record_completion("c", {1.0, 500.0, 100.0}, bad),
                   std::invalid_argument);
      expect_one_completion(a);
    }
  }
}

TEST(TaskAllocator, RejectedFirstCompletionCreatesNoPolicies) {
  auto a = make_allocator(tora::core::kExhaustiveBucketing, 3);
  const auto id = a.intern("fresh");
  EXPECT_THROW(a.record_completion(id, {std::nan(""), 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_FALSE(a.policies_created(id));
  EXPECT_EQ(a.records_for(id), 0u);
}

TEST(TaskAllocator, EveryPolicyRejectsNonFiniteObservations) {
  const AllocatorConfig cfg;
  for (const auto& name : tora::core::all_policy_names()) {
    const auto factory = tora::core::make_policy_factory(name, 3);
    for (double bad : kBadNumbers) {
      SCOPED_TRACE(name + " " + std::to_string(bad));
      auto policy = factory(ResourceKind::MemoryMB, cfg);
      policy->observe(100.0, 1.0);
      EXPECT_THROW(policy->observe(bad, 2.0), std::invalid_argument);
      EXPECT_THROW(policy->observe(100.0, bad), std::invalid_argument);
      EXPECT_EQ(policy->record_count(), 1u);
    }
  }
}

TEST(TaskAllocator, ExplorationDefaultClampedToCapacity) {
  tora::core::RegistryOptions opts;
  opts.exploration_default = ResourceVector{99.0, 1e9, 1e9, 0.0};
  auto a = make_allocator(tora::core::kGreedyBucketing, 1, kCapacity, opts);
  const ResourceVector alloc = a.allocate("cat");
  EXPECT_DOUBLE_EQ(alloc.cores(), 16.0);
  EXPECT_DOUBLE_EQ(alloc.memory_mb(), 65536.0);
}

}  // namespace
