#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace tora::core {

/// The winner of an argmin scan: the least cost and the lowest index that
/// has it. `index == kNone` when no candidate costs less than +inf (every
/// cost NaN or +inf, or no candidate at all); `cost` is then +inf.
struct ScanMin {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  double cost = std::numeric_limits<double>::infinity();
  std::size_t index = kNone;
};

/// The constants rounding margins are written in: u = 2^-53, the largest
/// relative error of one round-to-nearest double operation, and the least
/// subnormal, which bounds the absolute error a product or quotient loses
/// to underflow (a sum or difference that underflows is exact).
inline constexpr double kUnitRoundoff = 0x1p-53;
inline constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

/// Candidates per block of bounded_argmin. A constant: the bound callbacks
/// are written and proven for blocks of any width, and 16 keeps a block's
/// bound cheap against the 16 costs it can save.
inline constexpr std::size_t kScanBlock = 16;

/// The result of the plain scan
///
///   best = {+inf, kNone};
///   for (i = 0; i < n; ++i) if (cost(i) < best.cost) best = {cost(i), i};
///
/// computed block by block, skipping the blocks that cannot hold it.
/// Candidates sit in blocks [16k, 16k + 15] (the last one may be short).
///
///   - `bound(i0, i1)` returns a lower bound on the cost of every candidate
///     in [i0, i1], already widened by its rounding margin. NaN and ±inf
///     are allowed and mean "no bound".
///   - `eval(i0, i1)` returns the block's own plain scan: its first minimum
///     by strict `<`, starting from {+inf, kNone}.
///
/// Every block's bound lands in `bounds` (scratch, resized here). The block
/// of least bound is evaluated first and its winner is the warm start.
/// Every other block follows in index order and is skipped only when its
/// bound is finite and strictly above the best cost so far: each of its
/// costs is then strictly greater, so none of them could win or tie. An
/// evaluated block's winner replaces the best when it costs less, or costs
/// the same at a lower index (the warm block may sit after it). The result
/// is therefore the plain scan's, bit for bit, as long as every bound is a
/// true lower bound.
template <typename Bound, typename Eval>
ScanMin bounded_argmin(std::size_t n, std::vector<double>& bounds,
                       Bound&& bound, Eval&& eval) {
  const std::size_t blocks = (n + kScanBlock - 1) / kScanBlock;
  if (blocks == 0) return {};
  bounds.resize(blocks);
  std::size_t warm = 0;
  double warm_bound = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < blocks; ++k) {
    const std::size_t i0 = k * kScanBlock;
    bounds[k] = bound(i0, std::min(i0 + kScanBlock, n) - 1);
    if (bounds[k] < warm_bound) {
      warm_bound = bounds[k];
      warm = k;
    }
  }
  ScanMin best =
      eval(warm * kScanBlock, std::min(warm * kScanBlock + kScanBlock, n) - 1);
  for (std::size_t k = 0; k < blocks; ++k) {
    if (k == warm) continue;
    if (std::isfinite(bounds[k]) && bounds[k] > best.cost) continue;
    const std::size_t i0 = k * kScanBlock;
    const ScanMin m = eval(i0, std::min(i0 + kScanBlock, n) - 1);
    if (m.cost < best.cost || (m.cost == best.cost && m.index < best.index)) {
      best = m;
    }
  }
  return best;
}

}  // namespace tora::core
