#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/lifecycle/category_table.hpp"
#include "core/metrics.hpp"
#include "core/resilience/resilience.hpp"
#include "core/snapshot_fields.hpp"

namespace tora::core::resilience {

/// A live speculative duplicate of a Running task's attempt: its worker
/// (never the primary's) and its start, in the owning runtime's clock.
struct Duplicate {
  std::uint64_t worker = 0;
  double start = 0.0;

  static constexpr auto fields() {
    return snapshot::section(
        "Duplicate", snapshot::field("worker", &Duplicate::worker),
        snapshot::field("start", &Duplicate::start, snapshot::kNonNegative));
  }
};

/// The runtime side of a transition (sim::Simulation,
/// proto::ProtocolManager): how a copy is charged, freed, checked and
/// promoted. Like DispatchDriver, it must not re-enter the machine.
class SpeculationDriver {
 public:
  virtual ~SpeculationDriver() = default;
  /// Charges a losing copy of Running task `task` — its allocation × `scale`
  /// — to the speculative column (DispatchCore::charge_speculation).
  virtual void charge_copy(std::uint64_t task, double scale) = 0;
  /// Frees what a losing copy of `task` held on `worker`.
  virtual void free_copy(std::uint64_t task, std::uint64_t worker) = 0;
  virtual bool copy_worker_alive(std::uint64_t worker) const = 0;
  /// `copy` becomes `task`'s attempt from its own start: rebind the task to
  /// copy.worker and re-arm the runtime's clock for it.
  virtual void promote_copy(std::uint64_t task, const Duplicate& copy) = 0;
};

/// Speculative re-dispatch, one machine for both runtimes: the table of live
/// duplicates, the launch gate and every transition of a copy
/// (docs/resilience.md has the table). A losing copy is freed and charged at
/// the runtime's scale, as its eviction ledger is: the seconds the copy ran
/// in the simulator, 1 per copy in the manager. Launches, promotions and
/// cancellations are counted in the runtime's ResilienceCounters. Each
/// runtime keeps its clock (when it asks the gate) and how it starts and
/// hears from a copy.
class Speculation {
 public:
  /// The owning runtime's clock. Seconds (the simulator): a copy is charged
  /// the seconds it ran, and an attempt straggles from start + threshold on,
  /// the instant its check fires. Ticks (the manager): a copy is charged 1,
  /// and an attempt straggles once its age in ticks is above the threshold.
  enum class Clock : std::uint8_t { Seconds, Ticks };

  struct Gate {
    /// Speculation on, the pool not degraded, churn seen, the category's
    /// straggler threshold known and no live duplicate.
    bool open = false;
    bool passed = false;  ///< open, and the threshold passed: launch now
    double due = 0.0;     ///< start + threshold, when open
  };

  Speculation(const ResilienceConfig& cfg, Clock clock,
              ResilienceCounters& counters)
      : cfg_(cfg), clock_(clock), counters_(&counters) {}

  /// The part of the gate every task shares (a runtime skips its scan
  /// without it).
  bool armed(bool degraded, bool churn) const noexcept {
    return cfg_.speculation && !degraded && churn;
  }
  /// The launch gate for Running task `task` of `category`, whose attempt
  /// started at `start`, at `now`.
  Gate gate(std::uint64_t task, CategoryId category, double start, double now,
            bool degraded, bool churn, DeadlineTracker& deadlines) const;

  /// Records a duplicate the runtime just started on `worker`. Throws
  /// std::logic_error if `task` already has one.
  void launch(std::uint64_t task, std::uint64_t worker, double now);
  /// The primary delivered first: a live duplicate lost the race.
  void primary_delivered(SpeculationDriver& d, std::uint64_t task,
                         double now) {
    duplicate_lost(d, task, now);
  }
  /// The duplicate delivered first: it is promoted, and the primary, bound on
  /// `primary_worker` since `primary_start`, is the losing copy. Throws
  /// std::logic_error without a duplicate.
  void duplicate_delivered(SpeculationDriver& d, std::uint64_t task,
                           std::uint64_t primary_worker, double primary_start,
                           double now);
  /// The primary was lost (evicted, dead or timed out; the runtime freed and
  /// charged it): a live duplicate is promoted if its worker is alive,
  /// cancelled otherwise. True when one was promoted (no requeue).
  bool primary_lost(SpeculationDriver& d, std::uint64_t task, double now);
  /// The duplicate was lost (its worker gone, or the copy timed out): it is
  /// cancelled; the primary is untouched.
  void duplicate_lost(SpeculationDriver& d, std::uint64_t task, double now);

  /// The live duplicate of `task`, or null.
  const Duplicate* find(std::uint64_t task) const {
    const auto it = table_.find(task);
    return it == table_.end() ? nullptr : &it->second;
  }
  /// With the Running tasks, the attempts the degraded cap counts.
  std::size_t live() const noexcept { return table_.size(); }
  const std::map<std::uint64_t, Duplicate>& table() const noexcept {
    return table_;
  }

  /// Throws SnapshotError(Speculation.table) unless `valid(task, copy)`
  /// holds for every live duplicate: the runtimes' post-load check.
  template <class Valid>
  void check_table(Valid valid) const {
    for (const auto& [task, copy] : table_) {
      if (!valid(task, copy)) {
        throw SnapshotError("Speculation", "table",
                            "task " + std::to_string(task) +
                                ": not a copy of a Running task started on "
                                "another live worker");
      }
    }
  }

  /// A format mark (a NaN's bits: what a build that kept speculation in
  /// its runtimes wrote here cannot match it), then the table.
  static constexpr auto fields() {
    return snapshot::section(
        "Speculation",
        snapshot::expect("format", [](const Speculation&) { return kFormat; }),
        snapshot::field("table", &Speculation::table_));
  }

 private:
  static constexpr std::uint64_t kFormat = 0x7ff8'7370'6563'0001;

  /// Removes `task`'s live duplicate, or returns false without one.
  bool take(std::uint64_t task, Duplicate& copy);
  /// Frees and charges a losing copy that ran since `start`.
  void lose(SpeculationDriver& d, std::uint64_t task, std::uint64_t worker,
            double start, double now);

  ResilienceConfig cfg_;
  Clock clock_;
  ResilienceCounters* counters_;
  std::map<std::uint64_t, Duplicate> table_;  // ordered: deterministic save
};

}  // namespace tora::core::resilience
