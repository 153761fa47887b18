#include "core/lifecycle/placement_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace tora::core::lifecycle {

void PlacementIndex::reset(std::size_t slots,
                           std::span<const ResourceVector> bounds) {
  if (bounds.size() > slots) {
    throw std::invalid_argument("PlacementIndex: more bounds than slots");
  }
  slots_ = slots;
  leaves_ = slots == 0 ? 0 : std::bit_ceil(slots);
  nodes_.assign(2 * leaves_, Bound{kNever, kNever, kNever});
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    Bound& leaf = nodes_[leaves_ + i];
    for (std::size_t d = 0; d < leaf.size(); ++d) {
      leaf[d] = bounds[i][kManagedResources[d]];
    }
  }
  for (std::size_t n = leaves_; n-- > 1;) {
    for (std::size_t d = 0; d < nodes_[n].size(); ++d) {
      nodes_[n][d] = std::max(nodes_[2 * n][d], nodes_[2 * n + 1][d]);
    }
  }
}

void PlacementIndex::set(std::size_t slot, const ResourceVector& bound) {
  if (slot >= slots_) {
    throw std::out_of_range("PlacementIndex: slot out of range");
  }
  std::size_t n = leaves_ + slot;
  for (std::size_t d = 0; d < nodes_[n].size(); ++d) {
    nodes_[n][d] = bound[kManagedResources[d]];
  }
  // Recompute the maxima up to the root; once a node comes out unchanged,
  // nothing above it can change either.
  for (n >>= 1; n >= 1; n >>= 1) {
    Bound m;
    for (std::size_t d = 0; d < m.size(); ++d) {
      m[d] = std::max(nodes_[2 * n][d], nodes_[2 * n + 1][d]);
    }
    if (m == nodes_[n]) break;
    nodes_[n] = m;
  }
}

}  // namespace tora::core::lifecycle
