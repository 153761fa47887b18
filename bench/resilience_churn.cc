// Resilience headline harness: the churn-adaptive layer (adaptive
// deadlines, speculative re-dispatch, eviction-storm degradation) is swept
// against the legacy behavior across eviction-storm intensities on a
// heavy-tailed workflow. Two invariants are enforced, mirroring the
// layer's design contract:
//
//   1. CALM: with no churn the enabled layer is bit-exact legacy — same
//      makespan, byte-identical waste accounting, zero interventions.
//   2. BURSTY: under the bursty storm scenario the layer must cut mean
//      makespan by >= 20% (speculative duplicates keep tail-task progress
//      alive through bursts that would otherwise requeue from scratch).
//
// Speculative waste is reported SEPARATELY from the paper's allocation
// waste: duplicates are an infrastructure countermeasure, so they live in
// their own WasteAccounting column and never pollute AWE.
//
// Set TORA_RESILIENCE_SEED to randomize the simulation seeds (the CI soak
// runs a fresh seed per build); the seed is printed so a failing run can
// be replayed. Emits BENCH_resilience.json; given a committed baseline
// json, enforces a 3x guard on the bursty resilience-on makespan.
//
// Usage: resilience_churn [out.json] [baseline.json]

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/resilience/resilience.hpp"
#include "core/task.hpp"
#include "exp/report.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"

#include "guard.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;

constexpr std::size_t kTasks = 400;
constexpr std::size_t kReplicates = 3;
constexpr ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};

/// Heavy-tailed single-category workflow: most attempts are short, a tail
/// runs 4x the straggler threshold — exactly the shape where an eviction
/// mid-tail throws away the most progress.
std::vector<TaskSpec> tail_workload() {
  std::vector<TaskSpec> tasks(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks[i].id = i;
    tasks[i].category = "mix";
    tasks[i].demand = ResourceVector{2.0, 4000.0, 2000.0, 0.0};
    tasks[i].duration_s = (i % 10 == 0) ? 360.0 : 60.0;
  }
  return tasks;
}

struct Scenario {
  const char* name;
  double storm_interval_s;  // 0 = calm (stable pool, no storms)
  double storm_fraction;
};

constexpr Scenario kScenarios[] = {
    {"calm", 0.0, 0.0},
    {"mild", 900.0, 0.3},
    {"bursty", 300.0, 0.6},
    {"severe", 200.0, 0.8},
};

tora::core::resilience::ResilienceConfig layer_on() {
  tora::core::resilience::ResilienceConfig r;
  r.deadlines = true;
  r.speculation = true;
  r.reliability = true;
  r.storm_control = true;
  // Deadlines exist to reap attempts that will never finish; this workload
  // has no hung attempts, so arm them as a backstop only (3x the slowest
  // observation) rather than letting early small samples kill healthy
  // tails.
  r.deadline_quantile = 1.0;
  r.deadline_slack = 3.0;
  r.min_records = 20;
  // The degraded-mode admission cap is sized to the pool (20 workers x 8
  // slots); the default of 8 is tuned for the protocol runtime's small
  // deployments and would throttle this pool to 5%.
  r.degraded_inflight_cap = 160;
  return r;
}

tora::sim::SimResult run_once(const std::vector<TaskSpec>& tasks,
                              const Scenario& sc, bool resilience,
                              std::uint64_t seed) {
  tora::sim::SimConfig cfg;
  cfg.worker_capacity = kCapacity;
  cfg.seed = seed;
  if (sc.storm_interval_s > 0.0) {
    // Storm scenarios keep background churn on so the pool refills between
    // bursts (joins are suppressed during a burst).
    cfg.churn.enabled = true;
    cfg.churn.initial_workers = 20;
    cfg.churn.min_workers = 12;
    cfg.churn.max_workers = 24;
    cfg.churn.mean_interarrival_s = 15.0;
    cfg.churn.mean_lifetime_s = 36000.0;  // storms are the only mass loss
    cfg.churn.storm_interval_s = sc.storm_interval_s;
    cfg.churn.storm_duration_s = 30.0;
    cfg.churn.storm_evict_fraction = sc.storm_fraction;
  } else {
    cfg.churn.enabled = false;
    cfg.churn.initial_workers = 20;
  }
  if (resilience) cfg.resilience = layer_on();
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7, kCapacity);
  tora::sim::Simulation sim(tasks, alloc, cfg);
  return sim.run();
}

std::string accounting_bytes(const tora::core::WasteAccounting& a) {
  tora::util::ByteWriter w;
  a.save(w);
  return w.take();
}

double spec_waste(const tora::sim::SimResult& r) {
  double total = 0.0;
  for (tora::core::ResourceKind k : tora::core::kManagedResources) {
    total += r.accounting.breakdown(k).speculative;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_resilience.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";

  std::uint64_t soak_seed = 42;
  bool randomized = false;
  if (const char* env = std::getenv("TORA_RESILIENCE_SEED")) {
    soak_seed = std::strtoull(env, nullptr, 10);
    randomized = true;
  }
  const auto tasks = tail_workload();
  std::cout << "Resilience churn sweep: " << kTasks
            << "-task heavy-tailed workflow, " << kReplicates
            << " replicates, base seed " << soak_seed
            << (randomized ? " (randomized via TORA_RESILIENCE_SEED)" : "")
            << "\n\n";

  bool ok = true;
  const auto violation = [&](const std::string& what) {
    std::cerr << "VIOLATION [seed " << soak_seed << "]: " << what << "\n";
    ok = false;
  };

  struct Row {
    std::string name;
    double makespan_off = 0.0;
    double makespan_on = 0.0;
    double evictions_on = 0.0;
    double spec_waste_on = 0.0;
    tora::core::ResilienceCounters counters;
  };
  std::vector<Row> rows;

  for (const Scenario& sc : kScenarios) {
    Row row;
    row.name = sc.name;
    for (std::size_t rep = 0; rep < kReplicates; ++rep) {
      const std::uint64_t seed = soak_seed + rep;
      const auto off = run_once(tasks, sc, false, seed);
      const auto on = run_once(tasks, sc, true, seed);
      if (off.tasks_completed + off.tasks_fatal != kTasks ||
          on.tasks_completed + on.tasks_fatal != kTasks) {
        violation(std::string(sc.name) + ": run did not terminate cleanly");
      }
      if (sc.storm_interval_s == 0.0) {
        // Calm contract: the enabled layer must be invisible.
        if (on.makespan_s != off.makespan_s) {
          violation("calm makespan changed with resilience enabled (" +
                    tora::exp::fmt(off.makespan_s, 3) + " -> " +
                    tora::exp::fmt(on.makespan_s, 3) + ")");
        }
        if (accounting_bytes(on.accounting) !=
            accounting_bytes(off.accounting)) {
          violation("calm waste accounting diverged with resilience enabled");
        }
        if (!(on.resilience == tora::core::ResilienceCounters{})) {
          violation("calm run recorded resilience interventions");
        }
      }
      row.makespan_off += off.makespan_s / kReplicates;
      row.makespan_on += on.makespan_s / kReplicates;
      row.evictions_on += static_cast<double>(on.evictions) / kReplicates;
      row.spec_waste_on += spec_waste(on) / kReplicates;
      row.counters.merge(on.resilience);
    }
    rows.push_back(row);
  }

  tora::exp::TextTable table({"scenario", "makespan off (s)", "makespan on (s)",
                              "improvement", "evictions", "spec waste",
                              "speculations", "storms"});
  double bursty_improvement = 0.0;
  double guard_makespan = 0.0;
  for (const Row& row : rows) {
    const double improvement =
        row.makespan_off > 0.0
            ? (row.makespan_off - row.makespan_on) / row.makespan_off
            : 0.0;
    if (row.name == "bursty") {
      bursty_improvement = improvement;
      guard_makespan = row.makespan_on;
    }
    table.add_row({row.name, tora::exp::fmt(row.makespan_off, 1),
                   tora::exp::fmt(row.makespan_on, 1),
                   tora::exp::fmt_pct(improvement),
                   tora::exp::fmt(row.evictions_on, 1),
                   tora::exp::fmt(row.spec_waste_on, 0),
                   std::to_string(row.counters.speculations_launched),
                   std::to_string(row.counters.storms_entered)});
  }
  table.print(std::cout);

  if (bursty_improvement < 0.20) {
    violation("bursty makespan improvement " +
              tora::exp::fmt_pct(bursty_improvement) +
              " is below the 20% acceptance bar");
  }

  std::cout << "\nresilience counters (bursty, summed over replicates):\n";
  for (const Row& row : rows) {
    if (row.name == "bursty") {
      tora::exp::counter_table(row.counters).print(std::cout);
    }
  }

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"resilience_churn\",\n"
       << "  \"tasks\": " << kTasks << ",\n"
       << "  \"replicates\": " << kReplicates << ",\n"
       << "  \"seed\": " << soak_seed << ",\n"
       << "  \"randomized\": " << (randomized ? "true" : "false") << ",\n"
       << "  \"bursty_improvement\": " << bursty_improvement << ",\n"
       << "  \"guard_makespan_s\": " << guard_makespan << ",\n"
       << "  \"invariants_held\": " << (ok ? "true" : "false") << ",\n"
       << "  \"scenarios\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << (i ? ",\n" : "\n") << "    {\"name\": \"" << row.name
         << "\", \"makespan_off_s\": " << row.makespan_off
         << ", \"makespan_on_s\": " << row.makespan_on
         << ", \"evictions\": " << row.evictions_on
         << ", \"speculative_waste\": " << row.spec_waste_on
         << ", \"speculations_launched\": "
         << row.counters.speculations_launched
         << ", \"speculations_promoted\": "
         << row.counters.speculations_promoted
         << ", \"storms_entered\": " << row.counters.storms_entered << "}";
  }
  json << "\n  ]\n}\n";

  // Model-time regression guard: the bursty resilience-on makespan is
  // deterministic at the default seed, so a 3x blow-up means the layer's
  // scheduling regressed, not that the machine was busy.
  if (!baseline_path.empty()) {
    const double base =
        tora::bench::read_guard(baseline_path, "guard_makespan_s");
    if (!tora::bench::within_guard(guard_makespan, base,
                                   tora::bench::Better::Lower)) {
      std::cerr << "regression: bursty resilience-on makespan "
                << guard_makespan << " s exceeds 3x the committed baseline ("
                << base << " s)\n";
      ok = false;
    } else {
      std::cout << "\nregression guard: bursty makespan " << guard_makespan
                << " s vs baseline " << base << " s (limit 3x)\n";
    }
  }

  std::cout << (ok ? "\nall resilience invariants held: calm runs bit-exact, "
                     "bursty churn >= 20% faster.\n"
                   : "\nRESILIENCE INVARIANT VIOLATIONS — see stderr above "
                     "(replay with TORA_RESILIENCE_SEED=" +
                         std::to_string(soak_seed) + ").\n");
  return ok ? 0 : 1;
}
