// Pool-size guard for the simulator's per-event accounting. The worker
// pool keeps exact running totals of its commitments and capacities, so a
// larger pool must not make each event dearer: 20,000 Phasing Trimodal tasks
// (workload seed 7) under max_seen run on the default opportunistic pool (35
// workers, 20-50) and on a 1,000-worker pool (500 minimum, 1,000 maximum),
// best wall time of 5 runs each. Both sides run in this one process, so the
// host's speed cancels out of their ratio.
//
// Exits 1 when the 1,000-worker run takes more than 2x the default one,
// and 2 when a run leaves tasks unfinished.
//
//   ./build/bench/pool_scaling [repeats]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "workloads/synthetic.hpp"

namespace {

constexpr std::size_t kTasks = 20000;
constexpr double kMaxRatio = 2.0;

struct Timed {
  double best_s = std::numeric_limits<double>::infinity();
  tora::exp::ExperimentResult last;
};

Timed time_runs(const tora::workloads::Workload& wl,
                const tora::exp::ExperimentConfig& cfg, int repeats) {
  Timed t;
  for (int i = 0; i < repeats; ++i) {
    t.last = tora::exp::run_experiment(wl, "max_seen", cfg);
    t.best_s = std::min(t.best_s, t.last.wall_s);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;
  const auto wl = tora::workloads::generate_synthetic(
      tora::workloads::trimodal_spec(kTasks), 7);

  tora::exp::ExperimentConfig small;
  tora::exp::ExperimentConfig large;
  large.sim.churn.initial_workers = 1000;
  large.sim.churn.min_workers = 500;
  large.sim.churn.max_workers = 1000;

  const Timed a = time_runs(wl, small, repeats);
  const Timed b = time_runs(wl, large, repeats);

  tora::exp::TextTable table(
      {"pool", "peak workers", "events", "best of " + std::to_string(repeats),
       "events/s"});
  for (const auto& [name, t] : {std::pair{"default (35)", &a},
                                std::pair{"1,000 workers", &b}}) {
    const auto& r = t->last.sim;
    table.add_row({name, std::to_string(r.peak_workers),
                   std::to_string(r.events_processed),
                   tora::exp::fmt(t->best_s, 4) + " s",
                   tora::exp::fmt(static_cast<double>(r.events_processed) /
                                      t->best_s,
                                  0)});
  }
  std::cout << "20k Phasing Trimodal (workload seed 7) under max_seen\n";
  table.print(std::cout);

  for (const Timed* t : {&a, &b}) {
    if (t->last.sim.tasks_completed + t->last.sim.tasks_fatal != kTasks) {
      std::cerr << "pool_scaling: a run left tasks unfinished\n";
      return 2;
    }
  }
  const double ratio = b.best_s / a.best_s;
  std::cout << "1,000-worker / default wall ratio: "
            << tora::exp::fmt(ratio, 2) << " (limit "
            << tora::exp::fmt(kMaxRatio, 1) << ")\n";
  if (ratio > kMaxRatio) {
    std::cerr << "pool_scaling: the 1,000-worker run took "
              << tora::exp::fmt(ratio, 2) << "x the default pool's\n";
    return 1;
  }
  return 0;
}
