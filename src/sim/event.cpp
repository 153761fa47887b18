#include "sim/event.hpp"

#include <algorithm>
#include <cmath>

namespace tora::sim::detail {

void validate_push_time(SimTime time) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("event queue: non-finite time");
  }
  if (time < 0.0) throw std::invalid_argument("event queue: negative time");
}

void save_events_canonical(util::ByteWriter& w, std::uint64_t next_seq,
                           std::vector<Event> events) {
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return event_before(x, y); });
  core::snapshot::save(w, EventFrame{next_seq, std::move(events)});
}

void EventFrame::after_load() {
  for (const Event& e : events) {
    if (e.seq >= next_seq) {
      throw core::SnapshotError("Event", "seq",
                                "seq " + std::to_string(e.seq) +
                                    " must be below next_seq " +
                                    std::to_string(next_seq));
    }
  }
}

std::vector<Event> load_events_canonical(util::ByteReader& r,
                                         std::uint64_t& next_seq) {
  EventFrame frame;
  core::snapshot::load(r, frame);
  next_seq = frame.next_seq;
  return std::move(frame.events);
}

}  // namespace tora::sim::detail
