#pragma once

#include <cstdint>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"

namespace tora::util {
class ByteWriter;
class ByteReader;
}  // namespace tora::util

namespace tora::sim {

/// The legacy engine: a binary min-heap over (time, seq), stored as a raw
/// vector + std::push_heap / std::pop_heap. O(log n) per operation; kept as
/// the differential baseline the calendar queue is verified against (and
/// selectable via QueueEngine::Heap). Deterministic: equal-time events pop
/// in insertion order.
class BinaryHeapQueue {
 public:
  void push(SimTime time, EventKind kind, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t epoch = 0);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Pops the earliest event. Throws std::logic_error when empty.
  Event pop();

  /// The earliest pending event, without removing it. Throws when empty.
  const Event& peek() const;

  /// Time of the earliest event. Throws when empty.
  SimTime next_time() const { return peek().time; }

  /// Snapshot/restore via the shared canonical frame (event.hpp): events
  /// sorted by (time, seq) plus the tie-breaking sequence counter —
  /// byte-identical to the calendar engine's snapshot of the same content.
  void save_state(util::ByteWriter& w) const;
  void load_state(util::ByteReader& r);

 private:
  struct Later {
    bool operator()(const Event& x, const Event& y) const noexcept {
      return event_before(y, x);
    }
  };
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

/// The simulation's pending-event set: a thin engine selector over the
/// legacy binary heap and the banded calendar queue. Both pop the identical
/// deterministic (time, seq) order and share one canonical snapshot format,
/// so a snapshot taken under either engine restores into either engine.
class EventQueue {
 public:
  explicit EventQueue(QueueEngine engine = QueueEngine::Calendar)
      : engine_(engine) {}

  QueueEngine engine() const noexcept { return engine_; }

  void push(SimTime time, EventKind kind, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t epoch = 0);

  bool empty() const noexcept {
    return engine_ == QueueEngine::Heap ? heap_.empty() : calendar_.empty();
  }
  std::size_t size() const noexcept {
    return engine_ == QueueEngine::Heap ? heap_.size() : calendar_.size();
  }

  /// Pops the earliest event. Throws std::logic_error when empty.
  Event pop();

  /// The earliest pending event, without removing it. Throws when empty.
  /// Non-const: the calendar engine may activate its next band.
  const Event& peek();

  /// Time of the earliest event. Throws when empty.
  SimTime next_time() { return peek().time; }

  /// Snapshot/restore of the full queue state (canonical (time, seq)-sorted
  /// event records plus the tie-breaking sequence counter). Engine-agnostic:
  /// identical bytes from either engine, loadable into either engine.
  void save_state(util::ByteWriter& w) const;
  void load_state(util::ByteReader& r);

 private:
  QueueEngine engine_;
  BinaryHeapQueue heap_;
  CalendarQueue calendar_;
};

}  // namespace tora::sim
