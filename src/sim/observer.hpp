#pragma once

#include <cstdint>
#include <iosfwd>

#include "core/resources.hpp"
#include "sim/event.hpp"

namespace tora::sim {

/// Observer hooks for the simulator's task/worker lifecycle. All callbacks
/// are invoked synchronously from Simulation::run with the current simulated
/// time; default implementations do nothing, so observers override only what
/// they need. The observer must outlive the simulation.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// Raw engine hook: fired for every event the engine dispatches, in pop
  /// order, before the event's handler runs. This is the event stream
  /// itself (time, kind, payload, seq) rather than a lifecycle
  /// interpretation of it — the pop-order oracle in tests/ checks it.
  virtual void on_event(const Event& /*e*/) {}

  virtual void on_task_submitted(SimTime /*t*/, std::uint64_t /*task*/) {}
  virtual void on_attempt_started(SimTime /*t*/, std::uint64_t /*task*/,
                                  std::uint64_t /*worker*/,
                                  const core::ResourceVector& /*alloc*/) {}
  virtual void on_attempt_failed(SimTime /*t*/, std::uint64_t /*task*/,
                                 unsigned /*exceeded_mask*/) {}
  virtual void on_task_completed(SimTime /*t*/, std::uint64_t /*task*/) {}
  virtual void on_task_fatal(SimTime /*t*/, std::uint64_t /*task*/) {}
  virtual void on_task_evicted(SimTime /*t*/, std::uint64_t /*task*/,
                               std::uint64_t /*worker*/) {}
  virtual void on_worker_joined(SimTime /*t*/, std::uint64_t /*worker*/) {}
  virtual void on_worker_left(SimTime /*t*/, std::uint64_t /*worker*/) {}
};

/// Streams every lifecycle event as a CSV row
/// `time,event,task,worker,cores,memory_mb,disk_mb` (columns blank where not
/// applicable). Suitable for offline visualization of a run's schedule.
class CsvTraceObserver final : public SimObserver {
 public:
  /// The stream must outlive the observer. Writes the header immediately.
  explicit CsvTraceObserver(std::ostream& out);

  void on_task_submitted(SimTime t, std::uint64_t task) override;
  void on_attempt_started(SimTime t, std::uint64_t task, std::uint64_t worker,
                          const core::ResourceVector& alloc) override;
  void on_attempt_failed(SimTime t, std::uint64_t task,
                         unsigned exceeded_mask) override;
  void on_task_completed(SimTime t, std::uint64_t task) override;
  void on_task_fatal(SimTime t, std::uint64_t task) override;
  void on_task_evicted(SimTime t, std::uint64_t task,
                       std::uint64_t worker) override;
  void on_worker_joined(SimTime t, std::uint64_t worker) override;
  void on_worker_left(SimTime t, std::uint64_t worker) override;

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  void row(SimTime t, const char* event, std::int64_t task,
           std::int64_t worker, const core::ResourceVector* alloc);

  std::ostream& out_;
  std::size_t rows_ = 0;
};

}  // namespace tora::sim
