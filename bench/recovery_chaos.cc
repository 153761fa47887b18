// Crash/recovery headline harness: every registered allocation policy runs
// a trimodal workflow over faulty channels while the manager is killed at
// scheduled crash points and rebuilt from its write-ahead journal and
// durable snapshots. The crashed run must finish BIT-FOR-BIT identical to
// the crash-free run — same completion set, per-category waste breakdown,
// retry sequences and chaos counters — asserted as byte equality of the
// manager state fingerprint. A second sweep crashes once at growing ticks
// with no snapshots, so the whole journal replays, and reports the records
// replayed per crash tick; BENCH_recovery.json carries both for the CI soak
// artifact. Replay time is failover_chaos's cold_rebuild_us.
//
// Set TORA_RECOVERY_SEED to randomize the crash schedule (CI soak runs a
// fresh seed per build); unset, a fixed schedule covering six distinct
// loss-free crash points is used. Exits non-zero on any divergence.

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
#include "exp/report.hpp"
#include "proto/recovery_runtime.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::recovery::CrashSchedule;
using tora::core::recovery::kLossFreeCrashPoints;
using tora::core::recovery::ManagerCrashPoint;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecoveryConfig;
using tora::proto::ChaosConfig;
using tora::proto::RecoverableProtocolRuntime;
using tora::proto::RecoveryRunResult;

constexpr std::size_t kTasks = 120;
constexpr std::size_t kWorkers = 6;
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

RecoverableProtocolRuntime::AllocatorFactory factory(
    const std::string& policy) {
  return [policy] {
    return std::make_unique<tora::core::TaskAllocator>(
        tora::core::make_allocator(policy, kAllocatorSeed, kCapacity));
  };
}

RecoveryRunResult run_once(const std::vector<tora::core::TaskSpec>& tasks,
                           const std::string& policy, CrashSchedule crashes,
                           std::size_t snapshot_every) {
  MemStorage storage;
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = snapshot_every;
  RecoverableProtocolRuntime runtime(tasks, factory(policy), kWorkers,
                                     kCapacity, chaos_config(), storage,
                                     recovery, std::move(crashes));
  return runtime.run();
}

}  // namespace

int main() {
  auto workload = tora::workloads::make_workload("trimodal", 11);
  workload.tasks.resize(kTasks);

  // The crash schedule: fixed covers six DISTINCT loss-free points (the
  // acceptance bar is >= 3); a TORA_RECOVERY_SEED draws a fresh one for
  // soak runs. Snapshot-rotation points only fire during a rotation, so
  // both modes run with a snapshot cadence.
  std::uint64_t soak_seed = 0;
  if (const char* env = std::getenv("TORA_RECOVERY_SEED")) {
    soak_seed = std::strtoull(env, nullptr, 10);
  }
  CrashSchedule crashes =
      soak_seed != 0
          ? CrashSchedule::random(soak_seed, 5, 10, kLossFreeCrashPoints)
          : CrashSchedule({{2, ManagerCrashPoint::AfterDrain},
                           {3, ManagerCrashPoint::PumpEnd},
                           {4, ManagerCrashPoint::BeforeSnapshotRename},
                           {6, ManagerCrashPoint::AfterSnapshotRename},
                           {8, ManagerCrashPoint::AfterLiveness},
                           {10, ManagerCrashPoint::PumpBegin}});
  std::cout << "Recovery chaos: " << kTasks << "-task trimodal workflow, "
            << kWorkers << " workers, drop/duplicate/corrupt channel faults\n"
            << "crash schedule"
            << (soak_seed != 0
                    ? " (randomized, seed " + std::to_string(soak_seed) + ")"
                    : " (fixed)")
            << ": " << crashes.describe() << "\n\n";

  bool ok = true;
  const auto violation = [&ok](const std::string& policy,
                               const std::string& what) {
    std::cerr << "VIOLATION [" << policy << "]: " << what << "\n";
    ok = false;
  };

  // extended_policy_names() already includes change_aware_bucketing.
  const std::vector<std::string>& policies =
      tora::core::extended_policy_names();

  tora::exp::TextTable table({"policy", "completed", "rounds", "crashes",
                              "journal recs", "snapshots", "replayed",
                              "mem AWE", "bit-exact"});
  RecoveryRunResult sample;
  for (const std::string& policy : policies) {
    const RecoveryRunResult baseline =
        run_once(workload.tasks, policy, CrashSchedule{}, 4);
    const RecoveryRunResult crashed =
        run_once(workload.tasks, policy, crashes, 4);

    if (baseline.tasks_completed != kTasks || baseline.tasks_fatal != 0) {
      violation(policy, "crash-free run incomplete: " +
                            std::to_string(baseline.tasks_completed) +
                            " completed");
    }
    const std::size_t scheduled = crashes.crashes().size();
    if (crashed.recovery.crashes_injected != scheduled) {
      violation(policy,
                "only " + std::to_string(crashed.recovery.crashes_injected) +
                    "/" + std::to_string(scheduled) + " crashes fired — "
                    "schedule outlived the run");
    }
    if (crashed.recovery.recoveries != crashed.recovery.crashes_injected) {
      violation(policy, "recovery count != crash count");
    }
    const bool exact = crashed.state_fingerprint == baseline.state_fingerprint;
    if (!exact) {
      violation(policy, "state fingerprint diverged from the crash-free run");
    }
    // The fingerprint subsumes these; spell out the paper-facing metrics so
    // a failure names what the reader cares about.
    if (crashed.tasks_completed != baseline.tasks_completed) {
      violation(policy, "completion set diverged");
    }
    if (crashed.accounting.breakdown(ResourceKind::MemoryMB).total_waste() !=
        baseline.accounting.breakdown(ResourceKind::MemoryMB).total_waste()) {
      violation(policy, "memory waste breakdown diverged");
    }
    if (!(crashed.chaos == baseline.chaos)) {
      violation(policy, "chaos/anomaly counters diverged");
    }

    table.add_row(
        {policy, std::to_string(crashed.tasks_completed),
         std::to_string(crashed.rounds),
         std::to_string(crashed.recovery.crashes_injected),
         std::to_string(crashed.recovery.journal_records),
         std::to_string(crashed.recovery.snapshots_written),
         std::to_string(crashed.recovery.records_replayed),
         tora::exp::fmt_pct(crashed.accounting.awe(ResourceKind::MemoryMB)),
         exact ? "yes" : "NO"});
    sample = crashed;
  }
  table.print(std::cout);

  std::cout << "\nrecovery counters of the last run:\n";
  tora::exp::counter_table(sample.recovery).print(std::cout);

  // ------------------------------------------------- replay vs crash tick
  // One crash at PumpBegin on tick T with NO snapshots: recovery replays the
  // whole journal from genesis, so replayed records grow with T.
  std::cout << "\nrecords replayed vs crash tick (single crash, no "
               "snapshots):\n";
  const std::string sweep_policy = "greedy_bucketing";
  struct SweepRow {
    std::uint64_t tick;
    std::size_t records_replayed;
  };
  std::vector<SweepRow> sweep;
  tora::exp::TextTable replay({"crash tick", "records replayed"});
  for (std::uint64_t tick : {2ull, 4ull, 8ull, 12ull, 16ull}) {
    const RecoveryRunResult r =
        run_once(workload.tasks, sweep_policy,
                 CrashSchedule({{tick, ManagerCrashPoint::PumpBegin}}), 0);
    if (r.recovery.crashes_injected != 1 || r.recovery.recoveries != 1) {
      violation(sweep_policy, "replay sweep crash at tick " +
                                  std::to_string(tick) + " did not fire");
      continue;
    }
    sweep.push_back({tick, r.recovery.records_replayed});
    replay.add_row({std::to_string(tick),
                    std::to_string(r.recovery.records_replayed)});
  }
  replay.print(std::cout);

  std::ofstream json("BENCH_recovery.json");
  json << "{\n"
       << "  \"benchmark\": \"recovery_chaos\",\n"
       << "  \"tasks\": " << kTasks << ",\n"
       << "  \"workers\": " << kWorkers << ",\n"
       << "  \"policies\": " << policies.size() << ",\n"
       << "  \"crash_schedule\": \"" << crashes.describe() << "\",\n"
       << "  \"soak_seed\": " << soak_seed << ",\n"
       << "  \"bit_exact\": " << (ok ? "true" : "false") << ",\n"
       << "  \"journal_records_last_run\": " << sample.recovery.journal_records
       << ",\n"
       << "  \"journal_bytes_last_run\": " << sample.recovery.journal_bytes
       << ",\n"
       << "  \"replay_sweep\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    json << (i ? ",\n" : "\n")
         << "    {\"crash_tick\": " << sweep[i].tick
         << ", \"records_replayed\": " << sweep[i].records_replayed << "}";
  }
  json << "\n  ]\n}\n";

  std::cout << (ok ? "\nall recovery invariants held: every policy finished "
                     "bit-for-bit identical to its\ncrash-free run under "
                     "channel chaos plus scheduled manager crashes.\n"
                   : "\nRECOVERY INVARIANT VIOLATIONS — see stderr above.\n");
  return ok ? 0 : 1;
}
