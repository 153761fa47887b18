#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/bytes.hpp"

namespace tora::sim {

namespace {

bool ascending(const Event& x, const Event& y) noexcept {
  return event_before(x, y);
}

/// Descending pop order for the active band: x sits closer to the front
/// than y iff x pops later.
bool descending(const Event& x, const Event& y) noexcept {
  return event_before(y, x);
}

}  // namespace

CalendarQueue::CalendarQueue()
    : active_cut_(-std::numeric_limits<double>::infinity()) {}

void CalendarQueue::push(SimTime time, EventKind kind, std::uint64_t a,
                         std::uint64_t b, std::uint64_t epoch) {
  detail::validate_push_time(time);
  Event e;
  e.time = time;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.epoch = epoch;
  e.seq = next_seq_++;
  route(e);
  ++size_;
}

void CalendarQueue::route(const Event& e) {
  if (e.time <= active_cut_) {
    // A new push always carries the highest seq, so among time ties it
    // belongs frontmost (pops last) — upper_bound lands exactly there.
    const auto it =
        std::upper_bound(active_.begin(), active_.end(), e, descending);
    active_.insert(it, e);
    return;
  }
  // Finest rung first: each rung tiles a subrange of its parent's drained
  // region, so the first rung whose span still covers e.time owns it.
  for (auto r = rungs_.rbegin(); r != rungs_.rend(); ++r) {
    if (e.time >= r->edges.back()) continue;
    // edges[cur] is the lower bound of the first undrained band; only the
    // finest rung can have e.time below it (coarser rungs' drained ranges
    // are exactly what the finer rungs tile), and that region between the
    // active cut and the front band belongs to the spill tier.
    if (e.time < r->edges[r->cur]) {
      spill_.push_back(e);  // appends past spill_sorted_len_, merged lazily
      return;
    }
    r->buckets[bucket_index(*r, e.time)].push_back(e);
    return;
  }
  overflow_.push_back(e);
}

std::size_t CalendarQueue::bucket_index(const Rung& r, SimTime t) {
  const std::size_t nb = r.buckets.size();
  const double guess = (t - r.edges[0]) * r.inv_width;
  std::size_t i = guess <= 0.0 ? 0 : static_cast<std::size_t>(guess);
  if (i >= nb) i = nb - 1;
  if (i < r.cur) i = r.cur;
  // The division is only a guess; the stored edges decide. Comparing
  // against them exactly is what keeps routing deterministic and every
  // event at or ahead of the drain cursor, whatever rounding the division
  // produced near a band boundary.
  while (i > r.cur && t < r.edges[i]) --i;
  while (i + 1 < nb && t >= r.edges[i + 1]) ++i;
  return i;
}

Event CalendarQueue::pop() {
  if (size_ == 0) throw std::logic_error("CalendarQueue: pop on empty queue");
  ensure_active();
  const Event e = active_.back();
  active_.pop_back();
  --size_;
  if (size_ == 0) reset_epoch();
  return e;
}

const Event& CalendarQueue::peek() {
  if (size_ == 0) throw std::logic_error("CalendarQueue: peek on empty queue");
  ensure_active();
  return active_.back();
}

void CalendarQueue::ensure_active() {
  while (active_.empty()) {
    if (spill_pos_ < spill_.size()) {
      activate_from_spill();
      continue;
    }
    // Advance the finest rung to its next non-empty band, unwinding
    // exhausted rungs back to their parents.
    while (!rungs_.empty()) {
      Rung& top = rungs_.back();
      const std::size_t nb = top.buckets.size();
      while (top.cur < nb && top.buckets[top.cur].empty()) ++top.cur;
      if (top.cur < nb) break;
      rungs_.pop_back();
    }
    if (rungs_.empty()) {
      rebuild_from_overflow();
      continue;
    }
    Rung& top = rungs_.back();
    std::vector<Event>& band = top.buckets[top.cur];
    const double lo = top.edges[top.cur];
    const double hi = top.edges[top.cur + 1];
    ++top.cur;  // spill routing now bounds against the NEXT band's edge
    if (band.size() > kSpawnThreshold && rungs_.size() < kMaxRungs) {
      // A pile: re-bin into a child rung spanning this band's nominal
      // range instead of sorting the whole thing. The band's vector must
      // be moved out first — growing rungs_ relocates the Rung that owns
      // it. Clearing keeps its capacity for the next epoch.
      std::vector<Event> moved = std::move(band);
      band.clear();
      rungs_.emplace_back();
      fill_rung(rungs_.back(), std::move(moved), lo, hi);
      continue;
    }
    activate_from_bucket(band);
  }
}

void CalendarQueue::activate_from_spill() {
  if (spill_sorted_len_ < spill_.size()) {
    // Integrate the appended suffix: compact the consumed prefix (pushes
    // only ever happen after activations, so spill_pos_ never exceeds the
    // sorted length), sort just the new tail, and merge. O(new·log(new) +
    // pending) instead of a full re-sort of the standing spill.
    spill_.erase(spill_.begin(),
                 spill_.begin() + static_cast<std::ptrdiff_t>(spill_pos_));
    spill_sorted_len_ -= spill_pos_;
    spill_pos_ = 0;
    const auto mid =
        spill_.begin() + static_cast<std::ptrdiff_t>(spill_sorted_len_);
    std::sort(mid, spill_.end(), ascending);
    std::inplace_merge(spill_.begin(), mid, spill_.end(), ascending);
    spill_sorted_len_ = spill_.size();
  }
  std::size_t cut = std::min(spill_pos_ + kMaxBand, spill_.size());
  while (cut < spill_.size() && spill_[cut].time == spill_[cut - 1].time) {
    ++cut;  // never split a time tie across the activation boundary
  }
  for (std::size_t i = cut; i-- > spill_pos_;) active_.push_back(spill_[i]);
  active_cut_ = spill_[cut - 1].time;
  spill_pos_ = cut;
  if (spill_pos_ == spill_.size()) {
    spill_.clear();
    spill_pos_ = 0;
    spill_sorted_len_ = 0;
  }
}

void CalendarQueue::activate_from_bucket(std::vector<Event>& bucket) {
  std::sort(bucket.begin(), bucket.end(), ascending);
  std::size_t cut = std::min(kMaxBand, bucket.size());
  while (cut < bucket.size() && bucket[cut].time == bucket[cut - 1].time) {
    ++cut;
  }
  for (std::size_t i = cut; i-- > 0;) active_.push_back(bucket[i]);
  active_cut_ = bucket[cut - 1].time;
  // The remainder becomes the spill tier — empty before this, because a
  // band only drains once the previous spill is exhausted.
  spill_.assign(bucket.begin() + static_cast<std::ptrdiff_t>(cut),
                bucket.end());
  spill_pos_ = 0;
  spill_sorted_len_ = spill_.size();
  bucket.clear();  // keeps its capacity for the next epoch
}

void CalendarQueue::fill_rung(Rung& r, std::vector<Event> events, double lo,
                              double hi) {
  std::size_t nb = kMinBuckets;
  while (nb < events.size() && nb < kMaxBuckets) nb <<= 1;
  double width = (hi - lo) / static_cast<double>(nb);
  if (!(width > 0.0)) width = hi - lo;  // denormal-narrow band: one wide bin
  if (!(width > 0.0)) width = 1.0;      // all one instant: geometry arbitrary
  r.edges.resize(nb + 1);
  r.edges[0] = lo;
  for (std::size_t i = 1; i < nb; ++i) {
    // Clamped so the interior edges can never drift past the band's stored
    // upper bound, whatever the width multiplication rounds to.
    r.edges[i] = std::min(lo + width * static_cast<double>(i), hi);
  }
  // The parent's stored edge verbatim: the child tiles its parent band
  // exactly, so routing's top-down exact comparisons stay gap-free. (For
  // the base rung built from overflow, hi is simply the computed top.)
  r.edges[nb] = hi;
  r.inv_width = 1.0 / width;
  r.buckets.resize(nb);
  for (auto& b : r.buckets) b.clear();
  r.cur = 0;
  for (const Event& e : events) {
    r.buckets[bucket_index(r, e.time)].push_back(e);
  }
}

void CalendarQueue::rebuild_from_overflow() {
  if (overflow_.empty()) {
    throw std::logic_error("CalendarQueue: internal size accounting corrupt");
  }
  double lo = overflow_.front().time;
  double hi = lo;
  for (const Event& e : overflow_) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  // Nudge the top edge above the maximum (bands are half-open) — and give
  // the all-one-instant population a nonzero span.
  const double top =
      hi + std::max(1.0, (hi - lo) / static_cast<double>(kMaxBuckets));
  rungs_.clear();
  rungs_.emplace_back();
  std::vector<Event> pending;
  pending.swap(overflow_);
  // Every event satisfies lo <= t < top, so the fill is total: each
  // rebuild drains the whole overflow and the minimum lands in band 0 —
  // every rebuild makes progress.
  fill_rung(rungs_.back(), std::move(pending), lo, top);
}

void CalendarQueue::reset_epoch() noexcept {
  // Every tier is empty: drop the ladder so the next population re-anchors
  // the calendar wherever its times lie.
  rungs_.clear();
  active_cut_ = -std::numeric_limits<double>::infinity();
  spill_.clear();
  spill_pos_ = 0;
  spill_sorted_len_ = 0;
}

void CalendarQueue::save_state(util::ByteWriter& w) const {
  std::vector<Event> all;
  all.reserve(size_);
  all.insert(all.end(), active_.begin(), active_.end());
  all.insert(all.end(),
             spill_.begin() + static_cast<std::ptrdiff_t>(spill_pos_),
             spill_.end());
  for (const Rung& r : rungs_) {
    for (std::size_t i = r.cur; i < r.buckets.size(); ++i) {
      all.insert(all.end(), r.buckets[i].begin(), r.buckets[i].end());
    }
  }
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  detail::save_events_canonical(w, next_seq_, std::move(all));
}

void CalendarQueue::load_state(util::ByteReader& r) {
  std::uint64_t seq = 0;
  std::vector<Event> events = detail::load_events_canonical(r, seq);
  next_seq_ = seq;
  active_.clear();
  reset_epoch();
  // Everything starts in overflow; the first peek/pop re-bins it into a
  // fresh epoch. Pop order is unaffected (the total order is total).
  overflow_ = std::move(events);
  size_ = overflow_.size();
}

}  // namespace tora::sim
