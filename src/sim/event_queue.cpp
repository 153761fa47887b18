#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bytes.hpp"

namespace tora::sim {

void BinaryHeapQueue::push(SimTime time, EventKind kind, std::uint64_t a,
                           std::uint64_t b, std::uint64_t epoch) {
  detail::validate_push_time(time);
  Event e;
  e.time = time;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.epoch = epoch;
  e.seq = next_seq_++;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Event BinaryHeapQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue: pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event e = heap_.back();
  heap_.pop_back();
  return e;
}

const Event& BinaryHeapQueue::peek() const {
  if (heap_.empty()) throw std::logic_error("EventQueue: peek on empty queue");
  return heap_.front();
}

void BinaryHeapQueue::save_state(util::ByteWriter& w) const {
  detail::save_events_canonical(w, next_seq_, heap_);
}

void BinaryHeapQueue::load_state(util::ByteReader& r) {
  std::uint64_t seq = 0;
  heap_ = detail::load_events_canonical(r, seq);
  next_seq_ = seq;
  // A (time, seq)-ascending array already satisfies the heap property under
  // Later, but re-establish it explicitly: load accepts records in any
  // order, and O(n) here buys robustness for free.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::push(SimTime time, EventKind kind, std::uint64_t a,
                      std::uint64_t b, std::uint64_t epoch) {
  if (engine_ == QueueEngine::Heap) {
    heap_.push(time, kind, a, b, epoch);
  } else {
    calendar_.push(time, kind, a, b, epoch);
  }
}

Event EventQueue::pop() {
  return engine_ == QueueEngine::Heap ? heap_.pop() : calendar_.pop();
}

const Event& EventQueue::peek() {
  return engine_ == QueueEngine::Heap ? heap_.peek() : calendar_.peek();
}

void EventQueue::save_state(util::ByteWriter& w) const {
  if (engine_ == QueueEngine::Heap) {
    heap_.save_state(w);
  } else {
    calendar_.save_state(w);
  }
}

void EventQueue::load_state(util::ByteReader& r) {
  if (engine_ == QueueEngine::Heap) {
    heap_.load_state(r);
  } else {
    calendar_.load_state(r);
  }
}

}  // namespace tora::sim
