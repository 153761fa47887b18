#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"

namespace tora::util {
class ByteWriter;
class ByteReader;
}  // namespace tora::util

namespace tora::sim {

/// Banded calendar/ladder queue over (time, seq)-ordered events. The binary
/// heap pays O(log n) per operation with poor locality once the pending set
/// reaches millions of events; this structure keeps the near future sorted
/// and the far future merely binned, for O(1) amortized push/pop:
///
///   active    a small vector sorted descending by (time, seq); back() is
///             the next event out. Covers every time <= active_cut_.
///   spill     the remainder of the last activation, covering
///             (active_cut_, front rung's cur edge); kept as a sorted
///             prefix plus lazily merged appends. Bounded activations
///             (kMaxBand) keep sorted inserts into `active` cheap even when
///             one band holds a burst of millions of events.
///   rungs     the ladder: a stack of calendars, each a row of equal-width
///             time bands [edges[i], edges[i+1]) drained in band order.
///             rungs[0] is built from the pending population (coarsest);
///             when a band comes up for draining holding a pile of events
///             (dense stretches pile recycled events into the near
///             future), it is re-binned into a finer child rung spanning
///             exactly that band's range instead of being sorted whole —
///             the ladder-queue move that keeps activation sorts small.
///   overflow  everything at or beyond the base rung's last edge — the far
///             future — plus the whole population while no rung exists.
///             Rebuilding the base rung from it starts the next epoch.
///
/// Determinism: identical push sequences produce identical pop sequences —
/// the total order is (time, seq) exactly as the heap's, and tier routing
/// compares against *stored* band edges (never recomputed expressions), so
/// floating-point rounding can never strand an event behind the drain
/// cursor or reorder a tie. The tier boundaries only ever advance while
/// events are pending, which is what makes same-time FIFO safe: a
/// later-pushed duplicate of any time can land in the same tier or an
/// earlier one, and within a tier the (time, seq) sort settles it.
///
/// Snapshots use the shared canonical frame (see event.hpp): saving sorts
/// the whole population, loading re-bins it, so save → load → save is
/// byte-stable and equal to any other writer of the same frame.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(SimTime time, EventKind kind, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t epoch = 0);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Pops the earliest event. Throws std::logic_error when empty.
  Event pop();

  /// The earliest pending event, without removing it. Throws when empty.
  /// Non-const: peeking may activate the next band.
  const Event& peek();

  /// Time of the earliest pending event. Throws when empty.
  SimTime next_time() { return peek().time; }

  void save_state(util::ByteWriter& w) const;
  void load_state(util::ByteReader& r);

 private:
  /// Largest activation: how many events one promotion moves into the
  /// sorted active band. Bounding this keeps the memmove cost of a sorted
  /// insert small even when a single band holds a same-time flood of
  /// millions of events (the flood itself still activates whole, because a
  /// cut never splits a time tie — that would break run completeness). Also
  /// bounds the memmove cost of routing a push INTO the sorted active band:
  /// in a steady pop-push hold pattern a fraction of successors land below
  /// the active cut, each paying an O(active size) insert.
  static constexpr std::size_t kMaxBand = 512;
  /// A band larger than this is re-binned into a child rung rather than
  /// sorted: sorting stays O(band · log(threshold)) however hard a dense
  /// stretch piles events into one band.
  static constexpr std::size_t kSpawnThreshold = 4 * kMaxBand;
  /// Ladder depth cap: a band of nearly-identical (but not equal) times
  /// could otherwise spawn degenerate rungs forever. At the cap the band
  /// is sorted whole — correct at any size, just slower.
  static constexpr std::size_t kMaxRungs = 64;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  /// One ladder rung: equal-width time bands over [edges.front(),
  /// edges.back()), drained in band order; `cur` is the first undrained
  /// band. A child rung always spans exactly its parent band's nominal
  /// [edges[cur], edges[cur+1]) range (with the parent's stored edge values
  /// reused verbatim), so the rungs tile time without gaps and routing can
  /// compare exactly.
  struct Rung {
    std::vector<double> edges;  ///< nb+1 band edges (stored, compared exactly)
    std::vector<std::vector<Event>> buckets;
    std::size_t cur = 0;
    double inv_width = 0.0;  ///< 1/band width (index guess only)
  };

  void route(const Event& e);
  static std::size_t bucket_index(const Rung& r, SimTime t);
  static void fill_rung(Rung& r, std::vector<Event> events, double lo,
                        double hi);
  void ensure_active();
  void activate_from_spill();
  void activate_from_bucket(std::vector<Event>& bucket);
  void rebuild_from_overflow();
  void reset_epoch() noexcept;

  std::vector<Event> active_;  ///< sorted descending; back() pops next
  /// Upper time bound (inclusive, compared exactly) of the active band.
  /// Starts at -inf so nothing routes to active before the first promotion.
  double active_cut_;
  std::vector<Event> spill_;   ///< [spill_pos_, end) still pending
  std::size_t spill_pos_ = 0;  ///< consumed prefix (compacted lazily)
  /// Length of the ascending-sorted prefix of `spill_`; pushes append past
  /// it unsorted. Re-sorting integrates only the appended suffix (sort it,
  /// then one inplace_merge) — a full re-sort per activation would be
  /// quadratic-ish when a dense stretch keeps trickling events into a
  /// large standing spill.
  std::size_t spill_sorted_len_ = 0;
  std::vector<Rung> rungs_;      ///< back() is the finest (earliest) rung
  std::vector<Event> overflow_;  ///< far future (unsorted)
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tora::sim
