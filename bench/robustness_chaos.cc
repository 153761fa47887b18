// Chaos robustness harness: every registered allocation policy runs the
// trimodal workload over the fault-injected protocol runtime — message
// drops, duplication, byte corruption, one hard-severed worker and one
// worker that executes a task but dies before reporting. Each (policy,
// seed) cell runs TWICE and must replay exactly: identical anomaly
// counters, message counts and round counts, because every fault decision
// derives from the seed. The harness exits non-zero if any workflow fails
// to complete, any counter diverges between replays, or eviction cost
// leaks into the allocator-charged waste accounting.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "exp/report.hpp"
#include "proto/fault.hpp"
#include "proto/manager.hpp"
#include "workloads/workload.hpp"

namespace {

constexpr std::size_t kTasks = 400;
constexpr std::size_t kWorkers = 8;
constexpr std::uint64_t kAllocatorSeed = 7;

tora::proto::ChaosConfig chaos_config(std::uint64_t seed) {
  tora::proto::ChaosConfig c;
  c.seed = seed;
  c.to_worker.drop_prob = 0.08;
  c.to_worker.duplicate_prob = 0.05;
  c.to_worker.corrupt_prob = 0.05;
  c.to_manager = c.to_worker;
  c.sever_workers = 1;
  c.sever_after_messages = 60;
  c.worker_faults.resize(3);
  c.worker_faults[2].crash_point = tora::proto::CrashPoint::BeforeResult;
  return c;
}

}  // namespace

int main() {
  using tora::core::ResourceKind;
  using tora::proto::ProtocolRunResult;
  using tora::proto::ProtocolRuntime;

  auto workload = tora::workloads::make_workload("trimodal", 11);
  workload.tasks.resize(kTasks);

  std::cout << "Chaos robustness: " << kTasks << "-task trimodal workflow, "
            << kWorkers << " workers, drop 8% / duplicate 5% / corrupt 5%, "
            << "1 severed worker, 1 crash-before-result\n\n";

  bool ok = true;
  const auto violation = [&ok](const std::string& policy,
                               std::uint64_t seed, const std::string& what) {
    std::cerr << "VIOLATION [" << policy << ", seed " << seed << "]: " << what
              << "\n";
    ok = false;
  };

  tora::exp::TextTable table({"policy", "completed", "redispatch", "evicted",
                              "dead", "stale", "malformed", "mem AWE"});
  ProtocolRunResult sample;
  for (const std::string& policy : tora::core::all_policy_names()) {
    // Aggregate over seeds for the table; every seed is checked.
    ProtocolRunResult shown;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto run_once = [&] {
        auto alloc = tora::core::make_allocator(policy, kAllocatorSeed);
        ProtocolRuntime runtime(workload.tasks, alloc, kWorkers,
                                {16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0},
                                chaos_config(seed));
        return runtime.run();
      };
      const ProtocolRunResult a = run_once();
      const ProtocolRunResult b = run_once();

      if (a.tasks_completed != kTasks || a.tasks_fatal != 0) {
        violation(policy, seed,
                  "incomplete: " + std::to_string(a.tasks_completed) +
                      " completed, " + std::to_string(a.tasks_fatal) +
                      " fatal");
      }
      if (!(a.chaos == b.chaos) || a.messages != b.messages ||
          a.rounds != b.rounds) {
        violation(policy, seed, "replay diverged from identical seed");
      }
      if (a.chaos.links_severed == 0) {
        violation(policy, seed, "severed link never engaged");
      }
      // Consistent waste accounting: exactly one successful record per
      // task, and eviction cost only in its own ledger.
      if (a.accounting.task_count() != a.tasks_completed) {
        violation(policy, seed, "task_count != tasks_completed");
      }
      if (a.chaos.protocol_evictions > 0 &&
          a.evicted_alloc.memory_mb() <= 0.0) {
        violation(policy, seed, "evictions reported without eviction cost");
      }
      const std::size_t failed_attempts =
          a.accounting.total_attempts() - a.accounting.task_count();
      if (policy == tora::core::kWholeMachine && failed_attempts != 0) {
        violation(policy, seed,
                  "whole_machine charged with allocation failures — "
                  "infrastructure faults leaked into the paper metric");
      }
      if (seed == 1) shown = a;
      sample = a;
    }
    table.add_row(
        {policy, std::to_string(shown.tasks_completed),
         std::to_string(shown.chaos.redispatches),
         std::to_string(shown.chaos.protocol_evictions),
         std::to_string(shown.chaos.workers_declared_dead),
         std::to_string(shown.chaos.stale_or_duplicate_results),
         std::to_string(shown.chaos.malformed_lines),
         tora::exp::fmt_pct(shown.accounting.awe(ResourceKind::MemoryMB))});
  }
  table.print(std::cout);

  std::cout << "\nanomaly counters of the last run (deterministic replay "
               "verified for every cell):\n";
  tora::exp::counter_table(sample.chaos).print(std::cout);

  std::cout << (ok ? "\nall chaos invariants held: every policy completed "
                     "under faults with replayable\ncounters and no "
                     "eviction cost charged to the allocator.\n"
                   : "\nCHAOS INVARIANT VIOLATIONS — see stderr above.\n");
  return ok ? 0 : 1;
}
