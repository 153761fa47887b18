// A churn + storm + speculation scenario in which the simulator's
// speculation machine is busy: one category where every sixth task runs
// about 27x longer than the rest, so those straggle past the threshold and
// get duplicates, on a small pool that eviction storms keep shrinking.
// Primaries are lost to storms, churn and adaptive deadlines while their
// duplicates run, so duplicates are launched, promoted and cancelled many
// times per run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/task.hpp"
#include "sim/simulation.hpp"

namespace tora::testing {

inline std::vector<core::TaskSpec> straggler_workload(std::size_t n) {
  std::vector<core::TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = "straggly";
    tasks[i].demand = core::ResourceVector{2.0, 2000.0, 1000.0, 0.0};
    tasks[i].duration_s =
        i % 6 == 5 ? 300.0 : 10.0 + static_cast<double>(i % 3);
  }
  return tasks;
}

/// Six to eight workers (three at the least), storms every 150 s evicting
/// half the pool, deadlines and speculation on; `storm_control` adds the
/// degraded mode, whose cap of 10 in-flight attempts holds probes.
inline sim::SimConfig straggler_config(std::uint64_t seed,
                                       bool storm_control) {
  sim::SimConfig cfg;
  cfg.churn.initial_workers = 6;
  cfg.churn.min_workers = 3;
  cfg.churn.max_workers = 8;
  cfg.churn.mean_interarrival_s = 20.0;
  cfg.churn.mean_lifetime_s = 400.0;
  cfg.churn.storm_interval_s = 150.0;
  cfg.churn.storm_duration_s = 20.0;
  cfg.churn.storm_evict_fraction = 0.5;
  cfg.submit_interval_s = 1.0;
  cfg.seed = seed;
  cfg.resilience.deadlines = true;
  cfg.resilience.speculation = true;
  cfg.resilience.storm_control = storm_control;
  cfg.resilience.min_records = 5;
  cfg.resilience.storm_enter = 4;
  cfg.resilience.storm_window = 30.0;
  cfg.resilience.degraded_inflight_cap = 10;
  return cfg;
}

}  // namespace tora::testing
