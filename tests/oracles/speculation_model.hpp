// A reference model of core::resilience::Speculation, spelled out without
// the machine's helpers: the live duplicates, the three counters, the log of
// what each transition asks of its runtime (free, charge, promote), and the
// launch gate. tests/test_speculation.cpp drives both through random
// sequences and compares them after every step.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace tora::oracles {

class SpeculationModel {
 public:
  /// One request a transition makes of its runtime, in order.
  struct Call {
    enum Kind { Free, Charge, Promote } kind;
    std::uint64_t task;
    std::uint64_t worker;  ///< Free, Promote
    double value;          ///< Charge: the scale; Promote: the copy's start

    bool operator==(const Call&) const = default;
  };
  struct Copy {
    std::uint64_t worker;
    double start;
  };

  /// `seconds`: the simulator's clock (charge the seconds a copy ran, a
  /// straggler from start + threshold on); otherwise the manager's ticks
  /// (charge 1, a straggler once its age is above the threshold).
  explicit SpeculationModel(bool seconds) : seconds_(seconds) {}

  std::map<std::uint64_t, Copy> live;
  std::size_t launched = 0, promoted = 0, cancelled = 0;
  std::vector<Call> calls;
  /// The workers the runtime reports alive.
  std::set<std::uint64_t> alive;

  void launch(std::uint64_t task, std::uint64_t worker, double now) {
    live[task] = {worker, now};
    ++launched;
  }

  void primary_delivered(std::uint64_t task, double now) {
    const auto it = live.find(task);
    if (it == live.end()) return;
    const Copy c = it->second;
    live.erase(it);
    calls.push_back({Call::Free, task, c.worker, 0.0});
    calls.push_back({Call::Charge, task, 0, charge(c.start, now)});
    ++cancelled;
  }

  void duplicate_delivered(std::uint64_t task, std::uint64_t primary_worker,
                           double primary_start, double now) {
    const Copy c = live.at(task);
    live.erase(task);
    calls.push_back({Call::Free, task, primary_worker, 0.0});
    calls.push_back({Call::Charge, task, 0, charge(primary_start, now)});
    ++promoted;
    calls.push_back({Call::Promote, task, c.worker, c.start});
  }

  bool primary_lost(std::uint64_t task, double now) {
    const auto it = live.find(task);
    if (it == live.end()) return false;
    const Copy c = it->second;
    live.erase(it);
    if (alive.count(c.worker) == 0) {
      calls.push_back({Call::Free, task, c.worker, 0.0});
      calls.push_back({Call::Charge, task, 0, charge(c.start, now)});
      ++cancelled;
      return false;
    }
    ++promoted;
    calls.push_back({Call::Promote, task, c.worker, c.start});
    return true;
  }

  void duplicate_lost(std::uint64_t task, double now) {
    // Same outcome as a primary delivery: the copy is freed and charged.
    primary_delivered(task, now);
  }

  /// The gate: nullopt while closed, else whether the attempt has passed
  /// `threshold`.
  std::optional<bool> gate(std::uint64_t task, bool speculation,
                           bool degraded, bool churn,
                           std::optional<double> threshold, double start,
                           double now) const {
    if (!speculation || degraded || !churn || live.count(task) != 0 ||
        !threshold) {
      return std::nullopt;
    }
    return seconds_ ? start + *threshold <= now : now - start > *threshold;
  }

 private:
  double charge(double start, double now) const {
    return seconds_ ? now - start : 1.0;
  }

  bool seconds_;
};

}  // namespace tora::oracles
