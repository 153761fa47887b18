#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/snapshot_fields.hpp"

namespace tora::sim {

/// Discrete-event clock value, seconds since simulation start.
using SimTime = double;

/// Event kinds the simulator processes. Payload fields are interpreted per
/// kind (see Simulation::step).
enum class EventKind {
  TaskSubmit,     ///< task `a` becomes ready for dispatch
  AttemptFinish,  ///< attempt of task `a` on worker `b` reaches its end
  WorkerJoin,     ///< a new opportunistic worker appears
  WorkerLeave,    ///< worker `a` is evicted from the pool
  StormBegin,     ///< churn burst: a fraction of the pool is evicted at once
  StormEnd,       ///< the burst window closes (joins resume)
  SpecCheck,      ///< is task `a`'s attempt a straggler? (epoch-validated)
  DeadlineKill,   ///< adaptive deadline for task `a`'s attempt expires
};

struct Event {
  SimTime time = 0.0;
  EventKind kind = EventKind::TaskSubmit;
  std::uint64_t a = 0;  ///< task id or worker id (per kind)
  std::uint64_t b = 0;  ///< worker id for AttemptFinish
  /// Attempt epoch: an AttemptFinish is stale (ignored) if the task has
  /// been rescheduled since it was enqueued (eviction cancels attempts).
  std::uint64_t epoch = 0;
  /// Insertion sequence; breaks time ties deterministically (FIFO).
  std::uint64_t seq = 0;

  static constexpr auto fields() {
    using core::snapshot::field;
    return core::snapshot::section(
        "Event", field("time", &Event::time, core::snapshot::kNonNegative),
        field("kind", &Event::kind,
              core::snapshot::at_most(EventKind::DeadlineKill)),
        field("a", &Event::a), field("b", &Event::b),
        field("epoch", &Event::epoch), field("seq", &Event::seq));
  }
};

/// True when `x` pops strictly before `y` under the queue's total order:
/// ascending time, insertion sequence breaking ties (FIFO).
inline bool event_before(const Event& x, const Event& y) noexcept {
  if (x.time != y.time) return x.time < y.time;
  return x.seq < y.seq;
}

namespace detail {

/// Throws std::invalid_argument unless `time` is a finite, non-negative
/// clock value. NaN/Inf would silently poison any comparison-based ordering
/// (every comparison with NaN is false), so the queue rejects them at the
/// push boundary.
void validate_push_time(SimTime time);

/// Writes the canonical snapshot frame: `next_seq`, the event count, then
/// every record sorted ascending by (time, seq), whatever the caller's
/// layout (the binary-heap oracle in tests/ writes the same bytes).
void save_events_canonical(util::ByteWriter& w, std::uint64_t next_seq,
                           std::vector<Event> events);

/// A save_events_canonical frame: the tie-break counter, then the events.
/// Load validates every field: the count must fit the remaining bytes
/// (before anything is reserved), kinds must be known, times finite and
/// non-negative, and `next_seq` must exceed every restored seq (a poisoned
/// tie-breaker would break FIFO determinism on the next push). Record order
/// is not assumed: a queue re-normalizes on load.
struct EventFrame {
  std::uint64_t next_seq = 0;
  std::vector<Event> events;

  static constexpr auto fields() {
    using core::snapshot::field;
    return core::snapshot::section(
        "EventFrame", &EventFrame::after_load,
        field("next_seq", &EventFrame::next_seq),
        field("events", &EventFrame::events));
  }
  void after_load();
};

std::vector<Event> load_events_canonical(util::ByteReader& r,
                                         std::uint64_t& next_seq);

}  // namespace detail

}  // namespace tora::sim
