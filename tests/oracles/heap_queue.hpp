// The simulator's event queue as it was before the calendar queue: a binary
// min-heap over (time, seq), O(log n) per operation. Equal-time events pop
// in insertion order, and snapshots use the canonical frame (sim/event.hpp),
// so its bytes equal the calendar queue's for the same pending events. The
// differential tests (tests/test_event_queue.cpp,
// tests/test_property_sweeps.cpp) and bench/scaling_events hold
// sim::CalendarQueue to it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event.hpp"
#include "util/bytes.hpp"

namespace tora::oracles {

class BinaryHeapQueue {
 public:
  void push(sim::SimTime time, sim::EventKind kind, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t epoch = 0) {
    sim::detail::validate_push_time(time);
    sim::Event e;
    e.time = time;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.epoch = epoch;
    e.seq = next_seq_++;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Pops the earliest event. Throws std::logic_error when empty.
  sim::Event pop() {
    if (heap_.empty()) throw std::logic_error("heap queue: pop on empty");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const sim::Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// The earliest pending event. Throws std::logic_error when empty.
  const sim::Event& peek() const {
    if (heap_.empty()) throw std::logic_error("heap queue: peek on empty");
    return heap_.front();
  }
  sim::SimTime next_time() const { return peek().time; }

  void save_state(util::ByteWriter& w) const {
    sim::detail::save_events_canonical(w, next_seq_, heap_);
  }
  void load_state(util::ByteReader& r) {
    std::uint64_t seq = 0;
    heap_ = sim::detail::load_events_canonical(r, seq);
    next_seq_ = seq;
    // Load accepts records in any order.
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

 private:
  struct Later {
    bool operator()(const sim::Event& x, const sim::Event& y) const noexcept {
      return sim::event_before(y, x);
    }
  };
  std::vector<sim::Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tora::oracles
