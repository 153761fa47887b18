// The simulator's event queue (sim::CalendarQueue), with the binary heap it
// replaced (tests/oracles/heap_queue.hpp) as its differential oracle: the
// same (time, seq) pop order and the same canonical snapshot bytes.

#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "oracles/heap_queue.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::SnapshotError;
using tora::oracles::BinaryHeapQueue;
using tora::sim::Event;
using tora::sim::EventKind;
using EventQueue = tora::sim::CalendarQueue;

/// Every event kind, for draws.
constexpr int kKinds = static_cast<int>(EventKind::DeadlineKill) + 1;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, EventKind::TaskSubmit, 3);
  q.push(1.0, EventKind::TaskSubmit, 1);
  q.push(2.0, EventKind::TaskSubmit, 2);
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_EQ(q.pop().a, 2u);
  EXPECT_EQ(q.pop().a, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.push(5.0, EventKind::TaskSubmit, i);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(q.pop().a, i);
}

TEST(EventQueue, NextTimePeeks) {
  EventQueue q;
  q.push(7.5, EventKind::WorkerJoin);
  q.push(2.5, EventKind::WorkerLeave, 4);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, CarriesPayload) {
  EventQueue q;
  q.push(1.0, EventKind::AttemptFinish, 11, 22, 33);
  const Event e = q.pop();
  EXPECT_EQ(e.kind, EventKind::AttemptFinish);
  EXPECT_EQ(e.a, 11u);
  EXPECT_EQ(e.b, 22u);
  EXPECT_EQ(e.epoch, 33u);
}

TEST(EventQueue, RejectsNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, EventKind::TaskSubmit), std::invalid_argument);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, SaveLoadPreservesPopOrderAndSequenceCounter) {
  EventQueue q;
  // Equal times: FIFO tie-break must survive the round-trip.
  q.push(5.0, EventKind::TaskSubmit, 1);
  q.push(2.0, EventKind::WorkerJoin, 2);
  q.push(5.0, EventKind::AttemptFinish, 3, 7, 9);
  q.push(2.0, EventKind::WorkerLeave, 4);

  tora::util::ByteWriter w;
  q.save_state(w);
  EventQueue restored;
  tora::util::ByteReader r(w.bytes());
  restored.load_state(r);
  EXPECT_TRUE(r.done());

  // New pushes continue the original sequence numbering.
  q.push(2.0, EventKind::TaskSubmit, 5);
  restored.push(2.0, EventKind::TaskSubmit, 5);

  while (!q.empty()) {
    ASSERT_FALSE(restored.empty());
    const Event a = q.pop();
    const Event b = restored.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(restored.empty());
}

TEST(EventQueue, SaveLoadAcceptsEveryEventKind) {
  // Regression: the load-time kind bound once stopped at WorkerLeave, so a
  // snapshot holding any of the later kinds (storms, speculation, deadline
  // kills) was rejected as corrupt. Every kind must round-trip.
  const EventKind all[] = {
      EventKind::TaskSubmit, EventKind::AttemptFinish, EventKind::WorkerJoin,
      EventKind::WorkerLeave, EventKind::StormBegin,   EventKind::StormEnd,
      EventKind::SpecCheck,   EventKind::DeadlineKill};
  EventQueue q;
  for (std::size_t i = 0; i < std::size(all); ++i) {
    q.push(static_cast<double>(i), all[i], i);
  }
  tora::util::ByteWriter w;
  q.save_state(w);
  EventQueue restored;
  tora::util::ByteReader r(w.bytes());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 0; i < std::size(all); ++i) {
    const Event e = restored.pop();
    EXPECT_EQ(e.kind, all[i]);
    EXPECT_EQ(e.a, i);
    if (i > 0) EXPECT_GT(e.seq, prev_seq);
    prev_seq = e.seq;
  }
  EXPECT_TRUE(restored.empty());
}

TEST(EventQueue, LoadRejectsUnknownEventKind) {
  EventQueue q;
  q.push(1.0, EventKind::TaskSubmit, 1);
  tora::util::ByteWriter w;
  q.save_state(w);
  std::string bytes(w.bytes());
  bytes[16 + 8] = 0x7f;  // the kind byte of the first record (after the two
                         // u64 header fields and its f64 time)
  EventQueue restored;
  tora::util::ByteReader r(bytes);
  EXPECT_THROW(restored.load_state(r), SnapshotError);
}

template <class Queue>
void expect_rejects_non_finite_times() {
  Queue q;
  EXPECT_THROW(
      q.push(std::numeric_limits<double>::quiet_NaN(), EventKind::TaskSubmit),
      std::invalid_argument);
  EXPECT_THROW(
      q.push(std::numeric_limits<double>::infinity(), EventKind::TaskSubmit),
      std::invalid_argument);
  EXPECT_THROW(
      q.push(-std::numeric_limits<double>::infinity(), EventKind::TaskSubmit),
      std::invalid_argument);
  EXPECT_TRUE(q.empty());  // rejected pushes must not land
  q.push(1.0, EventKind::TaskSubmit, 9);
  EXPECT_EQ(q.pop().a, 9u);
}

/// Expects `Queue` to refuse `bytes` with the typed snapshot error.
template <class Queue>
void expect_refused(const std::string& bytes) {
  Queue restored;
  tora::util::ByteReader r(bytes);
  EXPECT_THROW(restored.load_state(r), SnapshotError);
}

// Regression: a NaN time would make every ordering comparison false and
// silently scramble pop order; Inf would park an event past every bucket
// edge forever. The queue and its oracle reject non-finite times at the
// push boundary with a typed error.
TEST(EventQueue, RejectsNonFiniteTimeOnBothEngines) {
  expect_rejects_non_finite_times<EventQueue>();
  expect_rejects_non_finite_times<BinaryHeapQueue>();
}

// A snapshot whose tie-break counter does not dominate the stored sequence
// numbers would hand out duplicate seqs on the next push and silently break
// FIFO determinism. load_state must refuse it with the typed error.
TEST(EventQueue, LoadRejectsNonDominatingNextSeq) {
  EventQueue q;
  q.push(1.0, EventKind::TaskSubmit, 1);
  q.push(2.0, EventKind::WorkerJoin, 2);
  tora::util::ByteWriter w;
  q.save_state(w);
  std::string bytes(w.bytes());
  // The first u64 of the frame is next_seq; zero it so every stored seq
  // (0 and 1) violates seq < next_seq.
  for (int i = 0; i < 8; ++i) bytes[i] = 0;
  expect_refused<EventQueue>(bytes);
  expect_refused<BinaryHeapQueue>(bytes);
}

// A forged event count larger than the remaining payload must be refused
// before any allocation happens (a hostile count must not balloon memory).
TEST(EventQueue, LoadRejectsCountExceedingPayload) {
  EventQueue q;
  q.push(1.0, EventKind::TaskSubmit, 1);
  tora::util::ByteWriter w;
  q.save_state(w);
  std::string bytes(w.bytes());
  // The second u64 of the frame is the event count; forge a huge one.
  bytes[8] = 0x40;
  bytes[9] = 0x42;
  bytes[10] = 0x0f;  // ~1e6 little-endian: far more records than bytes
  expect_refused<EventQueue>(bytes);
  expect_refused<BinaryHeapQueue>(bytes);
}

TEST(EventQueue, LoadRejectsNonFiniteStoredTime) {
  EventQueue q;
  q.push(1.0, EventKind::TaskSubmit, 1);
  tora::util::ByteWriter w;
  q.save_state(w);
  std::string bytes(w.bytes());
  // Overwrite the first record's f64 time (offset 16) with +Inf.
  const double inf = std::numeric_limits<double>::infinity();
  std::string raw(reinterpret_cast<const char*>(&inf), sizeof(inf));
  bytes.replace(16, sizeof(inf), raw);
  EventQueue restored;
  tora::util::ByteReader r(bytes);
  EXPECT_THROW(restored.load_state(r), SnapshotError);
}

// The canonical snapshot frame depends on the logical content alone: the
// calendar queue and the heap oracle write identical bytes for the same
// pending events, and each one's bytes restore into the other with
// identical pop order.
TEST(EventQueue, SnapshotsAreByteIdenticalAndCrossLoadableAcrossEngines) {
  BinaryHeapQueue heap;
  EventQueue cal;
  std::mt19937_64 rng(20240810);
  std::uniform_real_distribution<double> time_dist(0.0, 500.0);
  for (int i = 0; i < 300; ++i) {
    const double t = (i % 5 == 0) ? 42.0 : time_dist(rng);  // seed time ties
    const auto kind = static_cast<EventKind>(i % kKinds);
    heap.push(t, kind, static_cast<std::uint64_t>(i), i + 1, i + 2);
    cal.push(t, kind, static_cast<std::uint64_t>(i), i + 1, i + 2);
  }
  // Drain a little first so the calendar queue holds a mid-epoch mix of
  // active band, spill, buckets and overflow when it snapshots.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(heap.pop().seq, cal.pop().seq);
  }
  tora::util::ByteWriter wh;
  tora::util::ByteWriter wc;
  heap.save_state(wh);
  cal.save_state(wc);
  EXPECT_EQ(wh.bytes(), wc.bytes());

  // Cross-load: heap bytes into a calendar queue and vice versa.
  EventQueue cal_from_heap;
  BinaryHeapQueue heap_from_cal;
  tora::util::ByteReader rh(wh.bytes());
  tora::util::ByteReader rc(wc.bytes());
  cal_from_heap.load_state(rh);
  heap_from_cal.load_state(rc);
  while (!cal_from_heap.empty()) {
    ASSERT_FALSE(heap_from_cal.empty());
    const Event a = cal_from_heap.pop();
    const Event b = heap_from_cal.pop();
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.kind, b.kind);
  }
  EXPECT_TRUE(heap_from_cal.empty());
}

// Differential property: under a seeded random interleaving of pushes and
// pops — with deliberate same-timestamp bursts — the calendar queue must pop
// the bit-identical (time, seq) sequence the binary heap pops.
TEST(EventQueue, RandomizedDifferentialHeapVsCalendar) {
  std::mt19937_64 rng(0xd1ffe7);
  std::uniform_real_distribution<double> time_dist(0.0, 1e6);
  std::uniform_int_distribution<int> burst_dist(1, 8);
  BinaryHeapQueue heap;
  EventQueue cal;
  for (int round = 0; round < 2000; ++round) {
    const int action = static_cast<int>(rng() % 3);
    if (action < 2 || heap.empty()) {
      // Push a burst sharing one timestamp (~25% reuse a popular instant to
      // stress FIFO tie-breaking across band boundaries).
      const double t = (rng() % 4 == 0) ? 1000.0 : time_dist(rng);
      const int burst = burst_dist(rng);
      for (int i = 0; i < burst; ++i) {
        const auto kind = static_cast<EventKind>(rng() % kKinds);
        const std::uint64_t a = rng();
        heap.push(t, kind, a);
        cal.push(t, kind, a);
      }
    } else {
      const Event eh = heap.pop();
      const Event ec = cal.pop();
      ASSERT_EQ(eh.seq, ec.seq) << "round " << round;
      ASSERT_EQ(eh.time, ec.time);
      ASSERT_EQ(eh.kind, ec.kind);
      ASSERT_EQ(eh.a, ec.a);
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty());
    ASSERT_EQ(heap.pop().seq, cal.pop().seq);
  }
  EXPECT_TRUE(cal.empty());
}

}  // namespace
