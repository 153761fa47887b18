// Differential tests for the dispatch pass's early end and the allocator's
// floors.
//
// A pass asks its driver's may_place whether anything at or above the ready
// queue's floor could be placed, before its first task and after each
// commit, and stops probing once the answer is no. Each such pass must leave
// the system as a full scan (may_place always true) leaves it: the same
// placements in the same order, the same queue, the same cached
// allocations, the same hooks and the same sampler bytes. A deterministic
// allocator's pass ends without refreshing the tasks it did not scan, so
// there the oracle compares what a refresh would return instead of the
// cached bytes, and drops the refreshes' allocation_committed hooks: fewer
// of those is the saving (the journal records them). Sampling allocators
// finish the scan without probing, so every byte and hook must match.
//
// The floor property: TaskAllocator::allocation_floor is at most every
// allocation allocate() can return before the next completion, and
// computing it creates no policy and moves no sampler.
//
// Inputs come from gtest's random seed: 0 under a plain run, so tier-1
// stays deterministic; `--gtest_shuffle --gtest_repeat=N` draws a fresh
// seed per repeat (printed by gtest and in every failure message; replay
// one with --gtest_random_seed=N).

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/registry.hpp"
#include "core/resources.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "scripted_driver.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::CategoryId;
using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskAllocator;
using tora::core::TaskSpec;
using tora::core::lifecycle::DispatchConfig;
using tora::core::lifecycle::DispatchCore;
using tora::core::lifecycle::RuntimeHooks;
using tora::core::lifecycle::TaskEntry;
using tora::tests::ScriptedDriver;
using tora::util::Rng;

constexpr ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};
constexpr std::array<ResourceKind, 3> kPlaced = {
    ResourceKind::Cores, ResourceKind::MemoryMB, ResourceKind::DiskMB};

std::uint64_t seed() {
  return static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
}

/// Small thresholds, so categories leave exploration, hybrid hands off and
/// the change detector fires within a short run.
tora::core::RegistryOptions small_options() {
  tora::core::RegistryOptions opts;
  opts.exploration_min_records = 3;
  opts.hybrid_switch_records = 6;
  opts.change_window = 4;
  return opts;
}

std::string bits(const ResourceVector& v) {
  std::ostringstream os;
  os << std::hex;
  for (ResourceKind k : tora::core::kAllResources) {
    os << ' ' << std::bit_cast<std::uint64_t>(v[k]);
  }
  return os.str();
}

bool same_bits(const ResourceVector& x, const ResourceVector& y) {
  for (ResourceKind k : tora::core::kAllResources) {
    if (std::bit_cast<std::uint64_t>(x[k]) !=
        std::bit_cast<std::uint64_t>(y[k])) {
      return false;
    }
  }
  return true;
}

/// Every hook, in order, with exact bits.
struct HookLog final : RuntimeHooks {
  std::vector<std::string> events;

  void task_fatal(std::uint64_t id) override {
    events.push_back("fatal " + std::to_string(id));
  }
  void allocation_committed(std::uint64_t id, const ResourceVector& alloc,
                            bool is_retry) override {
    events.push_back((is_retry ? "retry " : "refresh ") + std::to_string(id) +
                     bits(alloc));
  }
  void task_dispatched(std::uint64_t id, std::uint64_t worker,
                       std::uint32_t attempt) override {
    events.push_back("dispatched " + std::to_string(id) + " " +
                     std::to_string(worker) + " " + std::to_string(attempt));
  }
  void task_completed(std::uint64_t id, const ResourceVector& peak,
                      double) override {
    events.push_back("completed " + std::to_string(id) + bits(peak));
  }
  void task_failed_attempt(std::uint64_t id, double, unsigned mask,
                           bool requeued) override {
    events.push_back("failed " + std::to_string(id) + " " +
                     std::to_string(mask) + (requeued ? " requeued" : ""));
  }
  void task_requeued(std::uint64_t id) override {
    events.push_back("requeued " + std::to_string(id));
  }
  void task_evicted(std::uint64_t id, double) override {
    events.push_back("evicted " + std::to_string(id));
  }
};

/// One run: an allocator, its core and a pool of workers. A worker's free
/// vector is its capacity less an external load and what runs on it;
/// placement is first fit, and the root is the per-dimension maximum of
/// the free vectors, which is what a placement index's root holds.
struct Side {
  TaskAllocator allocator;
  HookLog hooks;
  DispatchCore core;
  std::vector<ResourceVector> load;
  std::vector<ResourceVector> used;
  std::vector<std::string> placements;
  std::size_t refusals = 0;  ///< may_place answers of false

  Side(const std::vector<TaskSpec>& tasks, const std::string& policy,
       DispatchConfig config, std::size_t workers)
      : allocator(tora::core::make_allocator(policy, 5, kCapacity,
                                             small_options())),
        core(tasks, allocator, config, hooks),
        load(workers),
        used(workers) {}

  ResourceVector free(std::size_t w) const {
    return kCapacity - load[w] - used[w];
  }

  std::optional<std::uint64_t> first_fit(const ResourceVector& alloc) const {
    for (std::size_t w = 0; w < load.size(); ++w) {
      const ResourceVector f = free(w);
      bool fits = true;
      for (ResourceKind k : kPlaced) fits = fits && alloc[k] <= f[k];
      if (fits) return w;
    }
    return std::nullopt;
  }

  bool root_admits(const ResourceVector& floor) const {
    for (ResourceKind k : kPlaced) {
      double most = -std::numeric_limits<double>::infinity();
      for (std::size_t w = 0; w < load.size(); ++w) {
        most = std::max(most, free(w)[k]);
      }
      if (floor[k] > most) return false;
    }
    return true;
  }

  void pass(bool early, std::uint64_t defer_key, std::size_t quota) {
    ScriptedDriver driver(
        [this](std::uint64_t, const ResourceVector& alloc) {
          return first_fit(alloc);
        },
        [this](std::uint64_t task, std::uint64_t worker,
               const ResourceVector& alloc) {
          used[worker] += alloc;
          placements.push_back(std::to_string(task) + "@" +
                               std::to_string(worker) + bits(alloc));
        },
        ResourceVector{},
        [this, early](const ResourceVector& floor) {
          if (!early) return true;
          const bool admits = root_admits(floor);
          if (!admits) ++refusals;
          return admits;
        },
        [defer_key](std::uint64_t task) {
          return (task * 0x9e3779b97f4a7c15ULL ^ defer_key) % 7 == 0;
        });
    core.dispatch_pass(driver, quota);
  }

  /// The worker a Running task holds gives its allocation back.
  void release(std::uint64_t task) {
    const TaskEntry& e = core.entry(task);
    used[e.running_on] -= e.alloc;
  }

  std::vector<std::uint64_t> running() const {
    std::vector<std::uint64_t> out;
    for (std::uint64_t t = 0; t < core.task_count(); ++t) {
      if (core.entry(t).phase == tora::core::lifecycle::TaskPhase::Running) {
        out.push_back(t);
      }
    }
    return out;
  }
};

/// The allocation a deterministic first attempt presents at its next scan:
/// its cached one while its version holds, else what a refresh stores.
ResourceVector effective(Side& s, std::uint64_t task, double inflation) {
  const TaskEntry& e = s.core.entry(task);
  const CategoryId c = s.core.category_of(task);
  if (e.has_alloc && e.alloc_revision == s.allocator.version(c)) {
    return e.alloc;
  }
  ResourceVector a = s.allocator.allocate(c);
  for (ResourceKind k : s.allocator.config().managed) {
    a[k] = std::min(a[k] * inflation, kCapacity[k]);
  }
  return a;
}

std::vector<std::string> without_refreshes(const std::vector<std::string>& v) {
  std::vector<std::string> out;
  for (const std::string& e : v) {
    if (e.rfind("refresh ", 0) != 0) out.push_back(e);
  }
  return out;
}

/// Compares the early-ending side `a` with the full-scan side `b`, then
/// clears the placements and hooks both logged since the last comparison.
void expect_same(Side& a, Side& b, bool deterministic, double inflation,
                 const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(a.placements, b.placements);
  ASSERT_EQ(a.core.ready_queue(), b.core.ready_queue());
  if (deterministic) {
    ASSERT_EQ(without_refreshes(a.hooks.events),
              without_refreshes(b.hooks.events));
  } else {
    ASSERT_EQ(a.hooks.events, b.hooks.events);
  }
  for (Side* s : {&a, &b}) {
    s->placements.clear();
    s->hooks.events.clear();
  }
  for (std::uint64_t t = 0; t < a.core.task_count(); ++t) {
    const TaskEntry& ea = a.core.entry(t);
    const TaskEntry& eb = b.core.entry(t);
    SCOPED_TRACE("task " + std::to_string(t));
    ASSERT_EQ(ea.phase, eb.phase);
    ASSERT_EQ(ea.attempts, eb.attempts);
    ASSERT_EQ(ea.is_retry, eb.is_retry);
    if (ea.has_alloc == eb.has_alloc &&
        ea.alloc_revision == eb.alloc_revision) {
      ASSERT_TRUE(same_bits(ea.alloc, eb.alloc))
          << bits(ea.alloc) << " vs" << bits(eb.alloc);
      continue;
    }
    // Only a queued deterministic first attempt the early end left
    // unscanned may lag, and its next scan presents what the full scan's
    // would.
    ASSERT_TRUE(deterministic);
    ASSERT_EQ(ea.phase, tora::core::lifecycle::TaskPhase::Queued);
    ASSERT_FALSE(ea.is_retry);
    const ResourceVector next_a = effective(a, t, inflation);
    const ResourceVector next_b = effective(b, t, inflation);
    ASSERT_TRUE(same_bits(next_a, next_b))
        << bits(next_a) << " vs" << bits(next_b);
  }
  ASSERT_EQ(a.allocator.category_count(), b.allocator.category_count());
  for (CategoryId c = 0; c < a.allocator.category_count(); ++c) {
    ASSERT_EQ(a.allocator.policies_created(c), b.allocator.policies_created(c));
    for (ResourceKind k : a.allocator.config().managed) {
      const auto* pa = a.allocator.policy_if_created(c, k);
      const auto* pb = b.allocator.policy_if_created(c, k);
      if (pa != nullptr) ASSERT_EQ(pa->sampler_state(), pb->sampler_state());
    }
  }
}

std::vector<TaskSpec> random_tasks(Rng& rng) {
  const std::size_t n = rng.uniform_int(10, 70);
  const std::size_t categories = rng.uniform_int(1, 3);
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec& t = tasks[i];
    t.id = i;
    const std::size_t c = rng.uniform_int(0, categories - 1);
    t.category = "c" + std::to_string(c);
    // Two modes per category, the upper one near a whole worker.
    const bool big = rng.uniform01() < 0.3;
    t.demand = ResourceVector{
        big ? rng.uniform(6.0, 15.0) : rng.uniform(0.5, 3.0),
        big ? rng.uniform(20000.0, 60000.0) : rng.uniform(200.0, 4000.0),
        rng.uniform(100.0, 8000.0) * static_cast<double>(c + 1), 0.0};
    t.duration_s = 1.0;
    if (i > 0 && rng.uniform01() < 0.15) {
      t.deps.push_back(rng.uniform_int(0, i - 1));
    }
  }
  return tasks;
}

bool deterministic_policy(const std::string& policy) {
  TaskAllocator probe =
      tora::core::make_allocator(policy, 5, kCapacity, small_options());
  const CategoryId c = probe.intern("c");
  probe.policy(c, ResourceKind::Cores);
  return probe.deterministic(c);
}

TEST(DispatchFloor, EarlyEndingPassMatchesFullScan) {
  std::size_t refusals = 0;
  for (const std::string& policy : tora::core::extended_policy_names()) {
    const bool deterministic = deterministic_policy(policy);
    std::size_t policy_refusals = 0;
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      Rng rng(seed() * 1000003 + trial * 131 + policy.size());
      const std::vector<TaskSpec> tasks = random_tasks(rng);
      DispatchConfig config;
      config.alloc_inflation = rng.uniform01() < 0.3 ? 1.5 : 1.0;
      config.max_attempts = rng.uniform01() < 0.3 ? 4 : 0;
      const std::size_t workers = rng.uniform_int(1, 4);
      Side a(tasks, policy, config, workers);
      Side b(tasks, policy, config, workers);
      a.core.start();
      b.core.start();
      const std::string label = policy + " trial " + std::to_string(trial) +
                                " seed " + std::to_string(seed());
      for (int step = 0; step < 160 && !a.core.done(); ++step) {
        const double r = rng.uniform01();
        const std::vector<std::uint64_t> running = a.running();
        if (r < 0.35) {
          const std::size_t quota = rng.uniform01() < 0.2
                                        ? 1
                                        : DispatchCore::kNoPlacementLimit;
          const std::uint64_t key = rng.uniform_int(0, 1u << 20);
          a.pass(true, key, quota);
          b.pass(false, key, quota);
        } else if (r < 0.75 && !running.empty()) {
          const std::uint64_t t =
              running[rng.uniform_int(0, running.size() - 1)];
          const double op = rng.uniform01();
          // A success peaks within its allocation.
          ResourceVector peak;
          for (ResourceKind k : kPlaced) {
            peak[k] = std::min(tasks[t].demand[k], a.core.entry(t).alloc[k]);
          }
          for (Side* s : {&a, &b}) s->release(t);
          if (op < 0.6) {
            a.core.complete(t, peak, 1.0);
            b.core.complete(t, peak, 1.0);
          } else if (op < 0.85) {
            const unsigned mask =
                static_cast<unsigned>(rng.uniform_int(1, 7));
            a.core.fail_attempt(t, 1.0, mask);
            b.core.fail_attempt(t, 1.0, mask);
          } else {
            for (Side* s : {&a, &b}) {
              s->core.charge_eviction(t, 1.0);
              s->core.requeue_front(t);
            }
          }
        } else {
          // A worker's external load moves: idle, busy or full.
          const std::size_t w = rng.uniform_int(0, workers - 1);
          const double u = rng.uniform01();
          const double f = u < 0.3 ? 0.0 : u < 0.7 ? rng.uniform(0.0, 1.0)
                                                   : 1.0;
          const ResourceVector load{kCapacity.cores() * f,
                                    kCapacity.memory_mb() * f,
                                    kCapacity.disk_mb() * rng.uniform01(),
                                    0.0};
          a.load[w] = load;
          b.load[w] = load;
        }
        expect_same(a, b, deterministic, config.alloc_inflation,
                    label + " step " + std::to_string(step));
        if (HasFatalFailure()) return;
      }
      policy_refusals += a.refusals;
    }
    // Every policy's runs must reach the early end, or this test shows
    // nothing about it.
    EXPECT_GT(policy_refusals, 0u) << policy;
    refusals += policy_refusals;
  }
  EXPECT_GT(refusals, 100u);
}

TEST(AllocationFloor, BoundsEveryAllocationAndDrawsNothing) {
  const std::vector<std::string> names = {"a", "b", "c", "untouched"};
  for (const std::string& policy : tora::core::extended_policy_names()) {
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      Rng rng(seed() * 7919 + trial * 17 + policy.size());
      TaskAllocator alloc =
          tora::core::make_allocator(policy, 9, kCapacity, small_options());
      std::vector<CategoryId> ids;
      for (const std::string& n : names) ids.push_back(alloc.intern(n));
      const std::string label =
          policy + " trial " + std::to_string(trial) + " seed " +
          std::to_string(seed());
      for (int round = 0; round < 40; ++round) {
        // New records for the first three categories (none for the last).
        const std::size_t adds = rng.uniform_int(0, 3);
        for (std::size_t i = 0; i < adds; ++i) {
          const CategoryId c = ids[rng.uniform_int(0, 2)];
          const double scale = rng.uniform01() < 0.2 ? 8.0 : 1.0;
          alloc.record_completion(
              c,
              ResourceVector{rng.uniform(0.1, 2.0) * scale,
                             rng.uniform(100.0, 5000.0) * scale,
                             rng.uniform(100.0, 5000.0) * scale, 0.0},
              static_cast<double>(round * 4 + i + 1));
        }
        for (CategoryId c : ids) {
          SCOPED_TRACE(label + " round " + std::to_string(round) +
                       " category " + names[c]);
          std::vector<bool> created;
          std::vector<std::string> samplers;
          for (CategoryId d : ids) {
            created.push_back(alloc.policies_created(d));
            for (ResourceKind k : alloc.config().managed) {
              const auto* p = alloc.policy_if_created(d, k);
              samplers.push_back(p != nullptr ? p->sampler_state() : "-");
            }
          }
          const ResourceVector floor = alloc.allocation_floor(c);
          std::size_t i = 0;
          for (CategoryId d : ids) {
            ASSERT_EQ(alloc.policies_created(d), created[d]);
            for (ResourceKind k : alloc.config().managed) {
              const auto* p = alloc.policy_if_created(d, k);
              ASSERT_EQ(p != nullptr ? p->sampler_state() : "-",
                        samplers[i++]);
            }
          }
          if (names[c] == "untouched") continue;
          for (int draw = 0; draw < 8; ++draw) {
            const ResourceVector got = alloc.allocate(c);
            for (ResourceKind k : alloc.config().managed) {
              ASSERT_LE(floor[k], got[k]) << tora::core::to_string(k);
            }
          }
        }
      }
      EXPECT_FALSE(alloc.policies_created(ids.back())) << label;
    }
  }
}

}  // namespace
