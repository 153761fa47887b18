// Hot-standby failover headline harness. Two sweeps:
//
//  1. Policy sweep: every registered allocation policy runs the trimodal
//     workflow over faulty channels while the primary manager node is
//     killed at a fixed schedule of loss-free barriers and the warm standby
//     is promoted each time. The FailoverProtocolRuntime enforces the
//     three-way fingerprint oracle (promoted standby == cold rebuild from
//     the mirror disk, == the crashed primary at full-tick barriers), the
//     zero-lost-acknowledged-results rule and split-brain fencing
//     internally — it THROWS on any violation, so completing is itself the
//     assertion. On top of that the harness demands the failover run land
//     on the exact completion set, waste accounting and chaos counters of
//     the never-crashed replicated run: zero lost results, zero duplicate
//     side effects.
//
//  2. Seeded soak: >= 1000 randomized crash schedules (two primary deaths
//     each, drawn over the pump barriers) through the same oracle stack,
//     with every run compared bit-exactly against the no-crash baseline.
//     Per-failover RTO (primary death -> promoted standby serving) and the
//     cold rebuild-from-disk contrast are accumulated across the whole
//     soak and emitted to BENCH_failover.json; the CI Release job guards
//     the mean RTO at 3x the committed baseline.
//
// Set TORA_FAILOVER_SEED to randomize the soak's base seed (CI does) and
// TORA_FAILOVER_ROUNDS to shrink the schedule count for sanitizer builds.
// Any violation prints the failing seed and exits non-zero.
//
// Usage: failover_chaos [out.json] [baseline.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/recovery/crash.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/replication/replication.hpp"
#include "exp/report.hpp"
#include "proto/failover_runtime.hpp"
#include "util/bytes.hpp"
#include "workloads/workload.hpp"

#include "guard.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::recovery::CrashSchedule;
using tora::core::recovery::kPumpCrashPoints;
using tora::core::recovery::ManagerCrashPoint;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecoveryConfig;
using tora::core::replication::ReplicationConfig;
using tora::proto::ChaosConfig;
using tora::proto::FailoverProtocolRuntime;
using tora::proto::FailoverRunResult;

constexpr std::size_t kTasks = 120;       // policy sweep
constexpr std::size_t kWorkers = 6;
constexpr std::size_t kSoakTasks = 36;    // per-schedule soak run
constexpr std::size_t kSoakWorkers = 4;
constexpr std::size_t kSoakCrashes = 2;
constexpr std::uint64_t kAllocatorSeed = 7;
constexpr ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};

ChaosConfig chaos_config() {
  ChaosConfig c;
  c.seed = 33;
  c.to_worker.drop_prob = 0.05;
  c.to_worker.duplicate_prob = 0.03;
  c.to_manager.drop_prob = 0.05;
  c.to_manager.corrupt_prob = 0.02;
  return c;
}

FailoverProtocolRuntime::AllocatorFactory factory(const std::string& policy) {
  return [policy] {
    return std::make_unique<tora::core::TaskAllocator>(
        tora::core::make_allocator(policy, kAllocatorSeed, kCapacity));
  };
}

FailoverRunResult run_once(const std::vector<tora::core::TaskSpec>& tasks,
                           const std::string& policy, std::size_t workers,
                           const ChaosConfig& chaos, CrashSchedule crashes,
                           std::size_t snapshot_every) {
  MemStorage storage;
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = snapshot_every;
  FailoverProtocolRuntime runtime(tasks, factory(policy), workers, kCapacity,
                                  chaos, storage, ReplicationConfig{},
                                  recovery, std::move(crashes));
  return runtime.run();
}

/// WasteAccounting has no operator==; its snapshot serialization is
/// bit-exact, so byte equality of the saved form IS state equality.
std::string accounting_bytes(const tora::core::WasteAccounting& a) {
  tora::util::ByteWriter w;
  a.save(w);
  return w.take();
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_failover.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";

  auto workload = tora::workloads::make_workload("trimodal", 11);
  workload.tasks.resize(kTasks);
  auto soak_tasks = workload.tasks;
  soak_tasks.resize(kSoakTasks);

  std::uint64_t base_seed = 1;
  if (const char* env = std::getenv("TORA_FAILOVER_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
    if (base_seed == 0) base_seed = 1;
  }
  std::size_t rounds = 1000;
  if (const char* env = std::getenv("TORA_FAILOVER_ROUNDS")) {
    rounds = std::strtoull(env, nullptr, 10);
  }

  bool ok = true;
  const auto violation = [&ok](const std::string& where,
                               const std::string& what) {
    std::cerr << "VIOLATION [" << where << "]: " << what << "\n";
    ok = false;
  };

  // ------------------------------------------------------------ policy sweep
  // Loss-free barriers only (pump points fire every tick; the rotation-
  // interior point needs the snapshot cadence), so the failover run must be
  // indistinguishable from the never-crashed replicated run in everything
  // but the leadership term.
  const CrashSchedule fixed({{2, ManagerCrashPoint::AfterDrain},
                             {4, ManagerCrashPoint::BeforeSnapshotRename},
                             {7, ManagerCrashPoint::PumpEnd}});
  std::cout << "Failover chaos: " << kTasks << "-task trimodal workflow, "
            << kWorkers
            << " workers, drop/duplicate/corrupt channel faults\n"
            << "fixed crash schedule: " << fixed.describe() << "\n\n";

  const std::vector<std::string>& policies =
      tora::core::extended_policy_names();
  tora::exp::TextTable table({"policy", "completed", "failovers", "term",
                              "shipped", "acks", "mean RTO us",
                              "cold rebuild us", "exact"});
  std::vector<double> rto_us;
  std::vector<double> cold_us;
  FailoverRunResult sample;
  for (const std::string& policy : policies) {
    FailoverRunResult baseline;
    FailoverRunResult crashed;
    try {
      baseline = run_once(workload.tasks, policy, kWorkers, chaos_config(),
                          CrashSchedule{}, 4);
      crashed = run_once(workload.tasks, policy, kWorkers, chaos_config(),
                         fixed, 4);
    } catch (const std::exception& e) {
      violation(policy, std::string("runtime oracle threw: ") + e.what());
      continue;
    }
    if (baseline.tasks_completed != kTasks || baseline.tasks_fatal != 0) {
      violation(policy, "crash-free replicated run incomplete");
    }
    if (crashed.failovers != fixed.crashes().size() ||
        crashed.final_term != fixed.crashes().size()) {
      violation(policy, "expected " + std::to_string(fixed.crashes().size()) +
                            " failovers, saw " +
                            std::to_string(crashed.failovers) + " (term " +
                            std::to_string(crashed.final_term) + ")");
    }
    const bool exact =
        crashed.tasks_completed == baseline.tasks_completed &&
        crashed.tasks_fatal == baseline.tasks_fatal &&
        accounting_bytes(crashed.accounting) ==
            accounting_bytes(baseline.accounting) &&
        crashed.chaos == baseline.chaos;
    if (!exact) {
      violation(policy, "failover run diverged from the crash-free run "
                        "(lost or duplicated work)");
    }
    rto_us.insert(rto_us.end(), crashed.rto_us.begin(), crashed.rto_us.end());
    cold_us.insert(cold_us.end(), crashed.cold_rebuild_us.begin(),
                   crashed.cold_rebuild_us.end());
    table.add_row({policy, std::to_string(crashed.tasks_completed),
                   std::to_string(crashed.failovers),
                   std::to_string(crashed.final_term),
                   std::to_string(crashed.replication.records_shipped),
                   std::to_string(crashed.replication.acks_received),
                   tora::exp::fmt(mean(crashed.rto_us), 1),
                   tora::exp::fmt(mean(crashed.cold_rebuild_us), 1),
                   exact ? "yes" : "NO"});
    sample = std::move(crashed);
  }
  table.print(std::cout);
  std::cout << "\nreplication counters of the last run:\n";
  tora::exp::counter_table(sample.replication).print(std::cout);

  // ------------------------------------------------------------ seeded soak
  // Clean channels isolate the failover machinery itself: with loss-free
  // barriers every run must reproduce the no-crash baseline bit-exactly.
  const ChaosConfig calm;
  FailoverRunResult soak_base;
  try {
    soak_base = run_once(soak_tasks, "greedy_bucketing", kSoakWorkers, calm,
                         CrashSchedule{}, 0);
  } catch (const std::exception& e) {
    violation("soak baseline", e.what());
  }
  const std::string base_acct = accounting_bytes(soak_base.accounting);

  std::cout << "\nsoak: " << rounds << " randomized schedules ("
            << kSoakCrashes << " primary deaths each, pump barriers, base "
            << "seed " << base_seed << ")\n";
  std::size_t soak_failovers = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < rounds && ok; ++i) {
    const std::uint64_t seed = base_seed + i;
    const std::string where = "seed " + std::to_string(seed);
    try {
      const FailoverRunResult r =
          run_once(soak_tasks, "greedy_bucketing", kSoakWorkers, calm,
                   CrashSchedule::random(seed, kSoakCrashes, 10,
                                         kPumpCrashPoints),
                   0);
      if (r.failovers != kSoakCrashes) {
        violation(where, "only " + std::to_string(r.failovers) + "/" +
                             std::to_string(kSoakCrashes) +
                             " failovers fired");
      }
      if (r.tasks_completed != soak_base.tasks_completed ||
          r.tasks_fatal != soak_base.tasks_fatal) {
        violation(where, "completion set diverged: lost or duplicated "
                         "results");
      }
      if (accounting_bytes(r.accounting) != base_acct) {
        violation(where, "waste accounting diverged: duplicated side "
                         "effects");
      }
      if (!(r.chaos == soak_base.chaos)) {
        violation(where, "chaos/anomaly counters diverged");
      }
      soak_failovers += r.failovers;
      rto_us.insert(rto_us.end(), r.rto_us.begin(), r.rto_us.end());
      cold_us.insert(cold_us.end(), r.cold_rebuild_us.begin(),
                     r.cold_rebuild_us.end());
    } catch (const std::exception& e) {
      violation(where, std::string("runtime oracle threw: ") + e.what());
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double soak_s = std::chrono::duration<double>(t1 - t0).count();

  std::sort(rto_us.begin(), rto_us.end());
  const double rto_mean = mean(rto_us);
  const double cold_mean = mean(cold_us);
  std::cout << "soak wall " << tora::exp::fmt(soak_s, 2) << " s, "
            << soak_failovers << " failovers; RTO us mean "
            << tora::exp::fmt(rto_mean, 1) << ", p50 "
            << tora::exp::fmt(percentile(rto_us, 0.5), 1) << ", p99 "
            << tora::exp::fmt(percentile(rto_us, 0.99), 1)
            << "; cold rebuild mean " << tora::exp::fmt(cold_mean, 1)
            << " us\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"failover_chaos\",\n"
       << "  \"tasks\": " << kTasks << ",\n"
       << "  \"workers\": " << kWorkers << ",\n"
       << "  \"policies\": " << policies.size() << ",\n"
       << "  \"soak_schedules\": " << rounds << ",\n"
       << "  \"soak_base_seed\": " << base_seed << ",\n"
       << "  \"soak_failovers\": " << soak_failovers << ",\n"
       << "  \"invariants_held\": " << (ok ? "true" : "false") << ",\n"
       << "  \"guard_rto_us_mean\": " << rto_mean << ",\n"
       << "  \"rto_us_p50\": " << percentile(rto_us, 0.5) << ",\n"
       << "  \"rto_us_p99\": " << percentile(rto_us, 0.99) << ",\n"
       << "  \"cold_rebuild_us_mean\": " << cold_mean << "\n"
       << "}\n";

  // RTO guard: 3x headroom absorbs CI noise; an accidental extra journal
  // replay, a lost warm image or a busy-wait in the promotion path blows
  // straight past it.
  if (!baseline_path.empty()) {
    const double base_rto =
        tora::bench::read_guard(baseline_path, "guard_rto_us_mean");
    if (!tora::bench::within_guard(rto_mean, base_rto,
                                   tora::bench::Better::Lower)) {
      std::cerr << "regression: mean RTO " << rto_mean
                << " us exceeds 3x the committed baseline (" << base_rto
                << " us)\n";
      ok = false;
    } else {
      std::cout << "regression guard: RTO " << tora::exp::fmt(rto_mean, 1)
                << " us vs baseline " << tora::exp::fmt(base_rto, 1)
                << " us (limit 3x)\n";
    }
  }

  std::cout << (ok ? "\nall failover invariants held: every promotion "
                     "served the exact acknowledged state,\nno primary "
                     "death lost or duplicated a single result.\n"
                   : "\nFAILOVER INVARIANT VIOLATIONS — see stderr above "
                     "(rerun with TORA_FAILOVER_SEED to reproduce).\n");
  return ok ? 0 : 1;
}
