#include "core/resilience/speculation.hpp"

#include <stdexcept>

namespace tora::core::resilience {

Speculation::Gate Speculation::gate(std::uint64_t task, CategoryId category,
                                    double start, double now, bool degraded,
                                    bool churn,
                                    DeadlineTracker& deadlines) const {
  Gate g;
  if (!armed(degraded, churn) || table_.count(task) != 0) return g;
  const auto threshold = deadlines.straggler_threshold(category);
  if (!threshold) return g;  // no evidence for this category yet
  g.open = true;
  g.due = start + *threshold;
  g.passed =
      clock_ == Clock::Seconds ? g.due <= now : now - start > *threshold;
  return g;
}

void Speculation::launch(std::uint64_t task, std::uint64_t worker,
                         double now) {
  if (!table_.emplace(task, Duplicate{worker, now}).second) {
    throw std::logic_error("Speculation: task " + std::to_string(task) +
                           " already has a duplicate");
  }
  ++counters_->speculations_launched;
}

void Speculation::duplicate_delivered(SpeculationDriver& d,
                                      std::uint64_t task,
                                      std::uint64_t primary_worker,
                                      double primary_start, double now) {
  Duplicate copy;
  if (!take(task, copy)) {
    throw std::logic_error("Speculation: task " + std::to_string(task) +
                           " has no duplicate to deliver");
  }
  // The abandoned primary is the insurance premium: nothing was evicted.
  lose(d, task, primary_worker, primary_start, now);
  ++counters_->speculations_promoted;
  d.promote_copy(task, copy);
}

bool Speculation::primary_lost(SpeculationDriver& d, std::uint64_t task,
                               double now) {
  Duplicate copy;
  if (!take(task, copy)) return false;
  if (!d.copy_worker_alive(copy.worker)) {
    lose(d, task, copy.worker, copy.start, now);
    ++counters_->speculations_cancelled;
    return false;
  }
  ++counters_->speculations_promoted;  // the handover costs nothing
  d.promote_copy(task, copy);
  return true;
}

void Speculation::duplicate_lost(SpeculationDriver& d, std::uint64_t task,
                                 double now) {
  Duplicate copy;
  if (!take(task, copy)) return;
  lose(d, task, copy.worker, copy.start, now);
  ++counters_->speculations_cancelled;
}

bool Speculation::take(std::uint64_t task, Duplicate& copy) {
  const auto it = table_.find(task);
  if (it == table_.end()) return false;
  copy = it->second;
  table_.erase(it);
  return true;
}

void Speculation::lose(SpeculationDriver& d, std::uint64_t task,
                       std::uint64_t worker, double start, double now) {
  d.free_copy(task, worker);
  d.charge_copy(task, clock_ == Clock::Seconds ? now - start : 1.0);
}

}  // namespace tora::core::resilience
