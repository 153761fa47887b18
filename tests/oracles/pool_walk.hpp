// The simulator's utilization integrals as it summed them before the worker
// pool kept exact running totals: on every event, a walk over every alive
// worker in id order adding committed·dt and capacity·dt in floating point,
// O(workers) per event. The differential tests hold the pool's O(1) exact
// totals to it (tests/test_pool_totals.cpp).
#pragma once

#include "core/resources.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"

namespace tora::oracles {

/// Attach with Simulation::set_observer before run(). on_event fires before
/// each event's handler, while the pool still holds the state that lasted
/// since the previous event: the state the simulator integrates too.
class PoolWalkIntegrals final : public sim::SimObserver {
 public:
  explicit PoolWalkIntegrals(const sim::Simulation& sim) : sim_(sim) {}

  void on_event(const sim::Event& e) override {
    const double dt = e.time - now_;
    if (dt > 0.0) {
      for (const auto& [id, w] : sim_.pool().workers()) {
        committed += w.committed() * dt;
        capacity += w.capacity() * dt;
      }
    }
    now_ = e.time;
  }

  core::ResourceVector committed;
  core::ResourceVector capacity;

 private:
  const sim::Simulation& sim_;
  sim::SimTime now_ = 0.0;
};

}  // namespace tora::oracles
