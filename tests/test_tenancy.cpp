// The tenancy layer's contracts, bottom-up: arbiter scoring math (fifo
// report-trusting, maxmin water-filling, DRF dominant shares, Karma credit
// banking + conservation + the work-conserving fallback), the
// MultiTenantCore facade (N=1 pass-through byte-equivalence — THE refactor
// oracle — global id mapping, snapshot framing), and the multi-tenant
// simulator (determinism, snapshot/resume bit-exactness, and the
// demand-misreporting property: drf protects the honest tenant where the
// fifo baseline, which trusts the inflated report, does not).

#include "core/tenancy/multi_tenant_core.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/registry.hpp"
#include "core/tenancy/arbiter.hpp"
#include "scripted_driver.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::tenancy::Arbiter;
using tora::core::tenancy::make_arbiter;
using tora::core::tenancy::MultiTenantCore;
using tora::core::tenancy::TenantId;
using tora::core::tenancy::TenantInput;
using tora::core::tenancy::TenantSpec;
using tora::core::tenancy::TenantView;
using tora::tests::ScriptedDriver;
using tora::util::ByteReader;
using tora::util::ByteWriter;

constexpr ResourceVector kPool{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};

TenantView view(TenantId id, double weight, std::size_t backlog,
                std::size_t running = 0, ResourceVector running_alloc = {}) {
  TenantView v;
  v.id = id;
  v.weight = weight;
  v.backlog = backlog;
  v.running = running;
  v.running_alloc = running_alloc;
  return v;
}

// --- arbiter units ---------------------------------------------------------

TEST(Arbiter, RegistryNamesAndUnknown) {
  for (const std::string& name : tora::core::tenancy::arbiter_names()) {
    EXPECT_EQ(make_arbiter(name)->name(), name);
  }
  EXPECT_THROW(make_arbiter("nope"), std::invalid_argument);
}

TEST(Arbiter, OnlyFifoIsPassThrough) {
  EXPECT_TRUE(make_arbiter("fifo")->pass_through());
  EXPECT_FALSE(make_arbiter("maxmin")->pass_through());
  EXPECT_FALSE(make_arbiter("drf")->pass_through());
  EXPECT_FALSE(make_arbiter("karma")->pass_through());
}

TEST(Arbiter, FifoTrustsTheReportedBacklog) {
  auto a = make_arbiter("fifo");
  // Tenant 1 merely REPORTS more work; fifo serves it first.
  const std::vector<TenantView> views = {view(0, 1.0, 5), view(1, 1.0, 50)};
  a->begin(views, kPool);
  ASSERT_TRUE(a->next().has_value());
  EXPECT_EQ(*a->next(), 1u);
}

TEST(Arbiter, FifoSkipsEmptyBacklogAndEndsPass) {
  auto a = make_arbiter("fifo");
  a->begin({{view(0, 1.0, 0), view(1, 1.0, 2)}}, kPool);
  EXPECT_EQ(*a->next(), 1u);
  a->feedback(1, 1, ResourceVector{1.0, 100.0, 10.0, 0.0});
  EXPECT_EQ(*a->next(), 1u);
  a->feedback(1, 1, ResourceVector{1.0, 100.0, 10.0, 0.0});
  // Backlog of 2 served: the pass is over.
  EXPECT_FALSE(a->next().has_value());
}

TEST(Arbiter, PlacementFailureMakesTenantIneligible) {
  auto a = make_arbiter("maxmin");
  a->begin({{view(0, 1.0, 10), view(1, 1.0, 10)}}, kPool);
  const TenantId first = *a->next();
  a->feedback(first, 0, ResourceVector{});  // could not place
  // Only the other tenant may be offered now.
  const TenantId second = *a->next();
  EXPECT_NE(second, first);
  a->feedback(second, 0, ResourceVector{});
  EXPECT_FALSE(a->next().has_value());
}

TEST(Arbiter, MaxMinWaterFillingFollowsWeights) {
  auto a = make_arbiter("maxmin");
  // Weights 1:3 and deep backlogs: grants should settle at 1:3.
  a->begin({{view(0, 1.0, 100), view(1, 3.0, 100)}}, kPool);
  const ResourceVector g{1.0, 100.0, 10.0, 0.0};
  for (int i = 0; i < 12; ++i) {
    const TenantId t = *a->next();
    a->feedback(t, 1, g);
  }
  EXPECT_EQ(a->granted_total(0), 3u);
  EXPECT_EQ(a->granted_total(1), 9u);
}

TEST(Arbiter, MaxMinCountsRunningSlots) {
  auto a = make_arbiter("maxmin");
  // Equal weights, but tenant 0 already runs 4 attempts: tenant 1 first.
  a->begin({{view(0, 1.0, 10, 4), view(1, 1.0, 10, 0)}}, kPool);
  EXPECT_EQ(*a->next(), 1u);
}

TEST(Arbiter, DrfPicksSmallestDominantShare) {
  auto a = make_arbiter("drf");
  // Tenant 0 dominates on cores (8/16 = 0.5), tenant 1 on memory
  // (48k/64k = 0.75): tenant 0 has the smaller dominant share.
  a->begin({{view(0, 1.0, 10, 1, ResourceVector{8.0, 8192.0, 0.0, 0.0}),
             view(1, 1.0, 10, 1, ResourceVector{2.0, 48.0 * 1024.0, 0.0, 0.0})}},
           kPool);
  EXPECT_EQ(*a->next(), 0u);
}

TEST(Arbiter, DrfWeightNormalizesShares) {
  auto a = make_arbiter("drf");
  // Same dominant share (0.5 each), but tenant 1's weight 3 entitles it to
  // more: its normalized share 0.5/0.75 beats tenant 0's 0.5/0.25.
  a->begin({{view(0, 1.0, 10, 1, ResourceVector{8.0, 0.0, 0.0, 0.0}),
             view(1, 3.0, 10, 1, ResourceVector{8.0, 0.0, 0.0, 0.0})}},
           kPool);
  EXPECT_EQ(*a->next(), 1u);
}

TEST(Arbiter, DrfCountsGrantsWithinThePass) {
  auto a = make_arbiter("drf");
  a->begin({{view(0, 1.0, 10), view(1, 1.0, 10)}}, kPool);
  // First offer ties -> tenant 0; a fat grant pushes its share above
  // tenant 1's, so the next offer flips.
  EXPECT_EQ(*a->next(), 0u);
  a->feedback(0, 1, ResourceVector{8.0, 8192.0, 0.0, 0.0});
  EXPECT_EQ(*a->next(), 1u);
}

double credit_sum(const Arbiter& a, std::size_t n) {
  double sum = 0.0;
  for (TenantId t = 0; t < n; ++t) sum += a.credit(t);
  return sum;
}

TEST(Arbiter, KarmaCreditsAreZeroSum) {
  auto a = make_arbiter("karma");
  // Tenant 1 idles (no backlog) while tenant 0 consumes: tenant 0 pays,
  // tenant 1 banks, and the total is conserved at every settle.
  for (int pass = 0; pass < 3; ++pass) {
    a->begin({{view(0, 1.0, 10), view(1, 1.0, 0)}}, kPool);
    while (const auto t = a->next()) {
      a->feedback(*t, 1, ResourceVector{4.0, 4096.0, 0.0, 0.0});
      if (a->granted_total(0) >= static_cast<std::uint64_t>(3 * (pass + 1))) {
        break;
      }
    }
    a->settle();
    EXPECT_NEAR(credit_sum(*a, 2), 0.0, 1e-9) << "pass " << pass;
  }
  EXPECT_LT(a->credit(0), 0.0);  // the consumer is in debt
  EXPECT_GT(a->credit(1), 0.0);  // the idle tenant banked
}

TEST(Arbiter, KarmaCreditorIsServedBeforeDebtor) {
  auto a = make_arbiter("karma");
  // Pass 1: tenant 0 consumes alone -> ends in debt.
  a->begin({{view(0, 1.0, 5), view(1, 1.0, 0)}}, kPool);
  a->feedback(*a->next(), 1, ResourceVector{8.0, 8192.0, 0.0, 0.0});
  a->settle();
  ASSERT_LT(a->credit(0), 0.0);
  // Pass 2: both want capacity. The debtor fails the credit check, so the
  // creditor gets the first offer even though ids tie toward tenant 0.
  a->begin({{view(0, 1.0, 5), view(1, 1.0, 5)}}, kPool);
  EXPECT_EQ(*a->next(), 1u);
}

TEST(Arbiter, KarmaDebtorStillServedWhenAlone) {
  // The livelock regression: a tenant in debt must still be granted when no
  // one else wants the capacity (work conservation waives the credit gate).
  auto a = make_arbiter("karma");
  a->begin({{view(0, 1.0, 5), view(1, 1.0, 0)}}, kPool);
  a->feedback(*a->next(), 1, ResourceVector{8.0, 8192.0, 0.0, 0.0});
  a->settle();
  ASSERT_LT(a->credit(0), 0.0);
  a->begin({{view(0, 1.0, 5), view(1, 1.0, 0)}}, kPool);
  const auto t = a->next();
  ASSERT_TRUE(t.has_value()) << "indebted tenant starved on an idle pool";
  EXPECT_EQ(*t, 0u);
}

TEST(Arbiter, SaveLoadRoundTripsGrantsAndCredits) {
  auto a = make_arbiter("karma");
  a->begin({{view(0, 1.0, 5), view(1, 1.0, 0)}}, kPool);
  a->feedback(*a->next(), 1, ResourceVector{4.0, 0.0, 0.0, 0.0});
  a->settle();
  ByteWriter w;
  a->save(w);

  auto b = make_arbiter("karma");
  ByteReader r(w.bytes());
  b->load(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(b->granted_total(0), a->granted_total(0));
  EXPECT_EQ(b->granted_total(1), a->granted_total(1));
  EXPECT_DOUBLE_EQ(b->credit(0), a->credit(0));
  EXPECT_DOUBLE_EQ(b->credit(1), a->credit(1));
}

// --- facade ----------------------------------------------------------------

std::vector<TaskSpec> local_tasks(std::size_t n, const char* category,
                                  double cores = 2.0) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = category;
    tasks[i].demand = ResourceVector{cores, 2000.0, 200.0, 0.0};
    tasks[i].duration_s = 30.0 + static_cast<double>(i % 5);
  }
  return tasks;
}

/// Drives one scripted lifecycle episode against anything exposing the
/// DispatchCore surface; returns the commit log for comparison.
template <typename Core>
std::vector<std::tuple<std::uint64_t, std::uint64_t, ResourceVector>> drive(
    Core& core) {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, ResourceVector>> log;
  const auto pass = [&](std::size_t cap) {
    std::size_t accepted = 0;
    ScriptedDriver driver(
        [&](std::uint64_t, const ResourceVector&)
            -> std::optional<std::uint64_t> {
          if (accepted >= cap) return std::nullopt;
          return 100 + accepted++;
        },
        [&](std::uint64_t task, std::uint64_t worker,
            const ResourceVector& alloc) {
          log.emplace_back(task, worker, alloc);
        });
    core.dispatch_pass(driver);
  };
  core.start();
  pass(3);
  // Measured peaks must sit under the committed allocation (the execution
  // model would have killed the attempt otherwise), so derive them from it.
  core.complete(std::get<0>(log[0]), std::get<2>(log[0]) * 0.5, 12.0);
  core.fail_attempt(std::get<0>(log[1]), 6.0, 1u << 1 /* memory */);
  pass(2);
  core.complete(std::get<0>(log[2]), std::get<2>(log[2]) * 0.25, 20.0);
  pass(100);
  return log;
}

TEST(MultiTenantCore, SinglePassthroughIsByteIdenticalToRawCore) {
  const auto tasks = local_tasks(8, "golden");

  auto raw_alloc = tora::core::make_allocator(tora::core::kExhaustiveBucketing,
                                              7, kPool);
  tora::core::lifecycle::DispatchCore raw(tasks, raw_alloc, {});

  auto mt_alloc = tora::core::make_allocator(tora::core::kExhaustiveBucketing,
                                             7, kPool);
  MultiTenantCore facade({{tasks, &mt_alloc, TenantSpec{}}}, {},
                         make_arbiter("fifo"));
  ASSERT_TRUE(facade.single_passthrough());

  const auto raw_log = drive(raw);
  const auto mt_log = drive(facade);
  EXPECT_EQ(raw_log, mt_log);

  // The oracle: tenant 0's section of the facade's snapshot — after the
  // frame's version and tenant count — is exactly the raw core's
  // allocator capture followed by its core state.
  ByteWriter legacy;
  tora::core::recovery::save_allocator(raw_alloc, legacy);
  raw.save_state(legacy);
  ByteWriter mt;
  facade.save_state(mt);
  constexpr std::size_t kFrameHeader = 4 + 4;
  ASSERT_GE(mt.size(), kFrameHeader + legacy.size());
  EXPECT_EQ(std::string(mt.bytes()).substr(kFrameHeader, legacy.size()),
            std::string(legacy.bytes()));
}

TEST(MultiTenantCore, SingleTenantNonFifoIsNotPassthrough) {
  const auto tasks = local_tasks(4, "solo");
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  MultiTenantCore facade({{tasks, &alloc, TenantSpec{}}}, {},
                         make_arbiter("drf"));
  EXPECT_FALSE(facade.single_passthrough());
}

TEST(MultiTenantCore, GlobalIdAndCategorySpacesAreDisjoint) {
  const auto t0 = local_tasks(3, "alpha");
  const auto t1 = local_tasks(4, "beta");
  auto a0 = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  auto a1 = tora::core::make_allocator(tora::core::kMaxSeen, 8, kPool);
  MultiTenantCore facade(
      {{t0, &a0, TenantSpec{"zero", 1.0}}, {t1, &a1, TenantSpec{"one", 2.0}}},
      {}, make_arbiter("drf"));

  EXPECT_EQ(facade.tenant_count(), 2u);
  EXPECT_EQ(facade.task_count(), 7u);
  EXPECT_EQ(facade.global_base(0), 0u);
  EXPECT_EQ(facade.global_base(1), 3u);
  EXPECT_EQ(facade.tenant_of(2), 0u);
  EXPECT_EQ(facade.tenant_of(3), 1u);
  EXPECT_EQ(facade.local_id(5), 2u);
  // The composed task view renumbers ids into the global space.
  ASSERT_EQ(facade.tasks().size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(facade.tasks()[i].id, i);
  }
  // Tenant category keys occupy disjoint ranges.
  EXPECT_NE(facade.category_of(0), facade.category_of(3));
  EXPECT_EQ(facade.category_base(1),
            a0.category_count());
}

TEST(MultiTenantCore, MisreportingTenantGetsInflatedAllocations) {
  const auto t0 = local_tasks(3, "same");
  const auto t1 = local_tasks(3, "same");
  auto a0 = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  auto a1 = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  TenantSpec greedy;
  greedy.name = "greedy";
  greedy.demand_multiplier = 3.0;
  MultiTenantCore facade(
      {{t0, &a0, TenantSpec{"honest", 1.0}}, {t1, &a1, greedy}}, {},
      make_arbiter("drf"));
  facade.start();
  std::vector<ResourceVector> allocs(facade.task_count());
  const auto pass = [&](std::size_t cap) {
    std::size_t accepted = 0;
    ScriptedDriver driver(
        [&](std::uint64_t, const ResourceVector&)
            -> std::optional<std::uint64_t> {
          if (accepted >= cap) return std::nullopt;
          return ++accepted;
        },
        [&](std::uint64_t task, std::uint64_t, const ResourceVector& alloc) {
          allocs[task] = alloc;
        },
        kPool);
    facade.dispatch_pass(driver);
  };
  // Warm both allocators with one identical observation each (cold-start
  // allocations are the whole machine, where the clamp hides inflation).
  pass(2);  // drf alternates: global 0 (honest), then global 3 (greedy)
  facade.complete(0, ResourceVector{1.0, 500.0, 50.0, 0.0}, 10.0);
  facade.complete(3, ResourceVector{1.0, 500.0, 50.0, 0.0}, 10.0);
  pass(2);  // global 1 and global 4, now allocated from the warm policies
  // Identical tasks, policies, seeds and observations: the greedy tenant's
  // committed allocation is strictly fatter on the managed dimensions
  // (clamped to worker capacity).
  EXPECT_GT(allocs[4][ResourceKind::Cores], allocs[1][ResourceKind::Cores]);
  EXPECT_GE(allocs[4][ResourceKind::MemoryMB],
            allocs[1][ResourceKind::MemoryMB]);
  EXPECT_LE(allocs[4][ResourceKind::Cores], kPool[ResourceKind::Cores]);
}

TEST(MultiTenantCore, SnapshotRoundTripAndArbiterMismatch) {
  const auto t0 = local_tasks(5, "alpha");
  const auto t1 = local_tasks(5, "beta");
  const auto build = [&](auto& a0, auto& a1, const char* arbiter) {
    return MultiTenantCore(
        {{t0, &a0, TenantSpec{"zero", 1.0}}, {t1, &a1, TenantSpec{"one", 2.0}}},
        {}, make_arbiter(arbiter));
  };
  auto a0 = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  auto a1 = tora::core::make_allocator(tora::core::kMaxSeen, 8, kPool);
  MultiTenantCore facade = build(a0, a1, "karma");
  drive(facade);
  ByteWriter w;
  facade.save_state(w);

  auto b0 = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  auto b1 = tora::core::make_allocator(tora::core::kMaxSeen, 8, kPool);
  MultiTenantCore restored = build(b0, b1, "karma");
  ByteReader r(w.bytes());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  // Derived running stats and the arbiter bank survive the round-trip, and
  // re-saving reproduces the same bytes.
  for (TenantId t = 0; t < 2; ++t) {
    EXPECT_EQ(restored.running_count(t), facade.running_count(t));
    EXPECT_EQ(restored.arbiter().granted_total(t),
              facade.arbiter().granted_total(t));
    EXPECT_DOUBLE_EQ(restored.arbiter().credit(t), facade.arbiter().credit(t));
  }
  ByteWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(std::string(w2.bytes()), std::string(w.bytes()));

  auto c0 = tora::core::make_allocator(tora::core::kMaxSeen, 7, kPool);
  auto c1 = tora::core::make_allocator(tora::core::kMaxSeen, 8, kPool);
  MultiTenantCore wrong = build(c0, c1, "drf");
  ByteReader r2(w.bytes());
  EXPECT_THROW(wrong.load_state(r2), std::runtime_error);
}

// --- multi-tenant simulation ----------------------------------------------

struct SimFixture {
  std::vector<TaskSpec> t0;
  std::vector<TaskSpec> t1;
  tora::core::TaskAllocator a0;
  tora::core::TaskAllocator a1;

  explicit SimFixture(double greedy_multiplier = 1.0)
      : t0(local_tasks(40, "mix")),
        t1(local_tasks(40, "mix")),
        a0(tora::core::make_allocator(tora::core::kExhaustiveBucketing, 7,
                                      kPool)),
        a1(tora::core::make_allocator(tora::core::kExhaustiveBucketing, 8,
                                      kPool)) {
    spec1.demand_multiplier = greedy_multiplier;
  }

  TenantSpec spec0{"honest", 1.0};
  TenantSpec spec1{"greedy", 1.0};

  std::vector<TenantInput> inputs() {
    return {{t0, &a0, spec0}, {t1, &a1, spec1}};
  }

  static tora::sim::SimConfig config() {
    tora::sim::SimConfig cfg;
    cfg.worker_capacity = kPool;
    cfg.seed = 5;
    cfg.churn.enabled = false;
    cfg.churn.initial_workers = 4;
    cfg.submit_interval_s = 2.0;
    return cfg;
  }
};

TEST(MultiTenantSim, SameSeedRunsAreIdentical) {
  SimFixture fa;
  tora::sim::Simulation sa(fa.inputs(), SimFixture::config(),
                           make_arbiter("drf"));
  const tora::sim::SimResult ra = sa.run();
  SimFixture fb;
  tora::sim::Simulation sb(fb.inputs(), SimFixture::config(),
                           make_arbiter("drf"));
  const tora::sim::SimResult rb = sb.run();

  EXPECT_DOUBLE_EQ(ra.makespan_s, rb.makespan_s);
  EXPECT_EQ(ra.tasks_completed, rb.tasks_completed);
  const auto oa = sa.tenant_outcomes();
  const auto ob = sb.tenant_outcomes();
  ASSERT_EQ(oa.size(), 2u);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(oa[t].makespan_s, ob[t].makespan_s);
    EXPECT_EQ(oa[t].granted, ob[t].granted);
    EXPECT_DOUBLE_EQ(oa[t].welfare, ob[t].welfare);
  }
}

TEST(MultiTenantSim, SnapshotResumeIsBitExact) {
  SimFixture ref;
  tora::sim::Simulation reference(ref.inputs(), SimFixture::config(),
                                  make_arbiter("drf"));
  const tora::sim::SimResult want = reference.run();
  ByteWriter wref;
  reference.save_state(wref);
  const std::string want_state(wref.bytes());

  for (const int prefix : {5, 60, 240}) {
    SimFixture fa;
    tora::sim::Simulation before(fa.inputs(), SimFixture::config(),
                                 make_arbiter("drf"));
    for (int i = 0; i < prefix && before.step(); ++i) {
    }
    ByteWriter w;
    before.save_state(w);
    const std::string saved(w.bytes());

    SimFixture fb;
    tora::sim::Simulation after(fb.inputs(), SimFixture::config(),
                                make_arbiter("drf"));
    ByteReader r(saved);
    after.load_state(r);
    EXPECT_TRUE(r.done()) << "prefix " << prefix;
    const tora::sim::SimResult got =
        after.tenants().done() ? after.result() : after.run();

    ByteWriter wafter;
    after.save_state(wafter);
    EXPECT_EQ(std::string(wafter.bytes()), want_state)
        << "diverged after resume at event " << prefix;
    EXPECT_DOUBLE_EQ(got.makespan_s, want.makespan_s);
    EXPECT_EQ(got.tasks_completed, want.tasks_completed);
  }
}

TEST(MultiTenantSim, DrfProtectsHonestTenantFromMisreporter) {
  // The misreporting property at test scale: same workload for both
  // tenants, the greedy one inflating its demand 4x. Under fifo the
  // inflated report buys priority; under drf the measured usage is what
  // counts, so the honest tenant must finish no later than it does under
  // fifo, and strictly earlier than the greedy tenant.
  const auto run = [&](const char* arbiter) {
    SimFixture f(4.0);
    tora::sim::Simulation sim(f.inputs(), SimFixture::config(),
                              make_arbiter(arbiter));
    sim.run();
    return sim.tenant_outcomes();
  };
  const auto fifo = run("fifo");
  const auto drf = run("drf");
  ASSERT_EQ(drf.size(), 2u);
  EXPECT_EQ(drf[0].completed, drf[0].tasks);
  EXPECT_EQ(drf[1].completed, drf[1].tasks);
  EXPECT_LE(drf[0].makespan_s, fifo[0].makespan_s);
  EXPECT_LT(drf[0].makespan_s, drf[1].makespan_s);
}

// --- tenant metrics --------------------------------------------------------

TEST(TenantMetrics, JainIndexBounds) {
  const double even[] = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(tora::core::jain_index(even), 1.0);
  const double one[] = {5.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(tora::core::jain_index(one), 0.25);
  EXPECT_DOUBLE_EQ(tora::core::jain_index({}), 1.0);
}

TEST(TenantMetrics, FinalizeSharesComputesWelfare) {
  std::vector<tora::core::TenantOutcome> out(2);
  out[0].weight = 1.0;
  out[0].committed_integral = ResourceVector{100.0, 0.0, 0.0, 0.0};
  out[1].weight = 3.0;
  out[1].committed_integral = ResourceVector{300.0, 0.0, 0.0, 0.0};
  tora::core::finalize_tenant_shares(out);
  EXPECT_DOUBLE_EQ(out[0].entitlement, 0.25);
  EXPECT_DOUBLE_EQ(out[1].entitlement, 0.75);
  EXPECT_DOUBLE_EQ(out[0].utilization_share, 0.25);
  EXPECT_DOUBLE_EQ(out[1].utilization_share, 0.75);
  // Both tenants got exactly their entitlement: welfare 1, Jain 1.
  EXPECT_DOUBLE_EQ(out[0].welfare, 1.0);
  EXPECT_DOUBLE_EQ(out[1].welfare, 1.0);
  EXPECT_DOUBLE_EQ(tora::core::tenant_fairness(out), 1.0);
}

}  // namespace
