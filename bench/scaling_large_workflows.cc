// Future-work experiment from the paper's §VII: "we target to evaluate our
// algorithms on even larger workflows (> 10,000 tasks). We hypothesize that
// the bucketing algorithms should perform even better on larger workflows
// since they ... quickly converge to a steady state on workflows of around
// 4,500 tasks."
//
// This harness scales the Bimodal and Phasing-Trimodal synthetic workflows
// from 1,000 to 20,000 tasks, runs Exhaustive/Greedy Bucketing and Max Seen
// on each size over workload seeds 1-4 (churn and policy seeds stay at the
// ExperimentConfig defaults), and reports memory AWE as mean ± 95% CI with
// the mean wall time per run, testing both the AWE hypothesis and the
// allocator's scalability. One seed per cell is not enough: a single seed's
// AWE can fall with size while the mean over seeds rises.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "util/stats.hpp"
#include "workloads/synthetic.hpp"

namespace {

tora::workloads::SyntheticSpec spec_for(const std::string& shape,
                                        std::size_t n) {
  return shape == "bimodal" ? tora::workloads::bimodal_spec(n)
                            : tora::workloads::trimodal_spec(n);
}

}  // namespace

int main() {
  using tora::core::ResourceKind;
  const std::vector<std::size_t> sizes = {1000, 5000, 10000, 20000};
  const std::vector<std::string> policies = {"max_seen", "greedy_bucketing",
                                             "exhaustive_bucketing"};
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  // Two-sided 95% Student t quantile for seeds.size() - 1 = 3 degrees of
  // freedom.
  constexpr double kT95 = 3.182;

  std::cout << "Scaling to large workflows (paper §VII hypothesis)\n"
               "memory AWE, mean ± 95% CI over workload seeds 1-4, and the "
               "mean wall time per run\n";
  const auto sweep_start = std::chrono::steady_clock::now();
  for (const std::string shape : {"bimodal", "trimodal"}) {
    std::cout << "\n== " << shape << " ==\n";
    std::vector<std::string> header{"policy"};
    for (auto n : sizes) header.push_back(std::to_string(n) + " tasks");
    tora::exp::TextTable table(header);
    for (const auto& p : policies) {
      std::vector<std::string> row{p};
      for (std::size_t n : sizes) {
        tora::util::OnlineStats awe;
        tora::util::OnlineStats wall;
        for (std::uint64_t seed : seeds) {
          const auto workload =
              tora::workloads::generate_synthetic(spec_for(shape, n), seed);
          const tora::exp::ExperimentConfig cfg;
          const auto t0 = std::chrono::steady_clock::now();
          const auto r = tora::exp::run_experiment(workload, p, cfg);
          wall.add(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
          awe.add(r.awe(ResourceKind::MemoryMB));
        }
        const double half =
            kT95 * std::sqrt(awe.sample_variance() /
                             static_cast<double>(awe.count()));
        row.push_back(tora::exp::fmt_pct(awe.mean()) + " ± " +
                      tora::exp::fmt(100.0 * half, 1) + " (" +
                      tora::exp::fmt(wall.mean(), 2) + "s)");
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }
  const double sweep_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();
  std::cout << "\nsweep: " << sizes.size() * policies.size() * 2 * seeds.size()
            << " runs in " << tora::exp::fmt(sweep_s, 1) << " s\n";
  std::cout << "\nHypothesis check: bucketing AWE should not degrade with "
               "size (converged steady state\namortizes exploration), and "
               "the per-run wall time should stay far below the paper's\n"
               "quadratic greedy cost thanks to the prefix-sum cost model.\n";
  return 0;
}
