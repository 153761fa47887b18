#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/resources.hpp"

namespace tora::core::lifecycle {

/// The free-capacity placement index both runtimes place through
/// (sim::WorkerPool and proto::ProtocolManager): an array-backed segment tree
/// over worker slots in ascending worker-id order. A leaf holds its worker's
/// free-capacity bound on each managed dimension (cores, memory, disk); an
/// inner node holds the per-dimension maximum of its children.
///
/// The index only prunes. A subtree is entered iff the allocation is <= the
/// node's maximum on every dimension, so a probe no worker can hold is
/// refused at the root in O(1), a first fit whose first admitted leaf
/// accepts descends in O(log W), and a bound change costs one leaf-to-root
/// walk, O(log W). The caller's exact fit predicate, together with its own
/// skips (exclusions, backpressure), still decides at every admitted leaf.
/// A leaf's bound may therefore over-admit but must never under-admit: it
/// must be >= every allocation the predicate accepts, on every dimension.
/// Given that, the leftmost leaf the predicate accepts is exactly the worker
/// a walk over every worker in id order would choose.
///
/// Absent slots (no worker, one that left, or one taking no new work) hold
/// -inf and are never entered. Allocations must be finite and non-negative.
class PlacementIndex {
  static constexpr double kNever = -std::numeric_limits<double>::infinity();

 public:
  /// The bound of an absent slot: no allocation is <= it.
  static constexpr ResourceVector kAbsent{kNever, kNever, kNever, kNever};

  /// Sizes the index for `slots` leaves in O(slots): leaf i takes
  /// `bounds[i]` for i < bounds.size(), every other leaf is absent.
  /// Throws std::invalid_argument if bounds.size() > slots.
  void reset(std::size_t slots,
             std::span<const ResourceVector> bounds = {});

  std::size_t slots() const noexcept { return slots_; }

  /// Sets `slot`'s bound (TimeS is ignored; kAbsent marks it absent).
  /// O(log W). Throws std::out_of_range if `slot` >= slots().
  void set(std::size_t slot, const ResourceVector& bound);

  /// True unless the root refuses `alloc`: false means no slot admits it,
  /// so first_fit and for_each_fit find nothing for it or for anything
  /// larger. O(1).
  bool admits_any(const ResourceVector& alloc) const noexcept {
    return slots_ > 0 && admits(1, alloc);
  }

  /// The leftmost slot whose bound admits `alloc` and for which
  /// `accept(slot)` returns true; nullopt if there is none.
  template <typename Accept>
  std::optional<std::size_t> first_fit(const ResourceVector& alloc,
                                       Accept&& accept) const {
    return scan(alloc, accept);
  }

  /// Calls `visit(slot)` for every slot whose bound admits `alloc`, in
  /// ascending slot order.
  template <typename Visit>
  void for_each_fit(const ResourceVector& alloc, Visit&& visit) const {
    scan(alloc, [&visit](std::size_t slot) {
      visit(slot);
      return false;
    });
  }

 private:
  using Bound = std::array<double, kManagedResources.size()>;

  bool admits(std::size_t node, const ResourceVector& alloc) const noexcept {
    const Bound& b = nodes_[node];
    return alloc[ResourceKind::Cores] <= b[0] &&
           alloc[ResourceKind::MemoryMB] <= b[1] &&
           alloc[ResourceKind::DiskMB] <= b[2];
  }

  /// Depth-first over the admitted subtrees in slot order; returns the first
  /// leaf for which `stop(slot)` is true.
  template <typename Stop>
  std::optional<std::size_t> scan(const ResourceVector& alloc,
                                  Stop&& stop) const {
    if (slots_ == 0 || !admits(1, alloc)) return std::nullopt;
    std::size_t n = 1;
    for (;;) {
      // Node n admits `alloc`.
      if (n < leaves_) {
        n *= 2;
        if (admits(n, alloc)) continue;
      } else if (stop(n - leaves_)) {
        return n - leaves_;
      }
      // Nothing under n: move to the next admitted subtree in slot order.
      // Climb while n is a right child (the root, 1, is odd too), then step
      // to the right sibling.
      do {
        while (n & 1) n >>= 1;
        if (n == 0) return std::nullopt;
        ++n;
      } while (!admits(n, alloc));
    }
  }

  std::size_t slots_ = 0;
  std::size_t leaves_ = 0;  ///< slots_ rounded up to a power of two
  /// Heap order: root at 1, children of n at 2n and 2n + 1, leaf of slot i
  /// at leaves_ + i.
  std::vector<Bound> nodes_;
};

}  // namespace tora::core::lifecycle
