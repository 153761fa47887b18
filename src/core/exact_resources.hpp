#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "core/resources.hpp"

namespace tora::core {

/// A resource amount the exact totals cannot hold: not a number, below
/// zero or above ExactResources::kMaxValue, or a pool whose summed capacity
/// would pass ExactResources::kMaxTotal. The message names the value and
/// where it entered (a SimConfig field, a CLI flag, a worker profile).
class ExactRangeError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A ResourceVector held exactly: each dimension an integer count of 2^-64
/// units in a signed 128-bit integer. Sums and differences are exact, so a
/// running total equals the sum of its terms in any order, and a total that
/// had every term it received taken out again is exactly zero.
///
/// Amounts enter through one checked conversion. A double at or above
/// 2^-12 has no bits below 2^-64 and converts exactly; finer bits are
/// floored (a start and its finish still cancel, both floor the same way).
class ExactResources {
 public:
  /// The most one dimension of one amount may carry: 2^40 units (a
  /// petabyte in MB, 35,000 years in seconds).
  static constexpr double kMaxValue = 0x1p40;
  /// The most a pool's summed capacity may reach in one dimension: half
  /// the 2^63 units the format holds, leaving headroom for commitments,
  /// which capacity does not bound on unmanaged dimensions (TimeS).
  static constexpr double kMaxTotal = 0x1p62;

  ExactResources() = default;

  /// The checked conversion. Throws ExactRangeError naming `what` when a
  /// dimension of `v` is not in [0, kMaxValue].
  explicit ExactResources(const ResourceVector& v,
                          std::string_view what = "resource amount");

  /// True iff every dimension of `v` is in [0, kMaxValue]: the checked
  /// conversion accepts it.
  static bool holds(const ResourceVector& v) noexcept;

  /// Each dimension rounded to the nearest double: a function of the exact
  /// value alone, so of no summation order.
  ResourceVector value() const noexcept;

  bool is_zero() const noexcept { return *this == ExactResources{}; }
  /// True iff no dimension is below zero.
  bool non_negative() const noexcept;

  /// Exact; throw ExactRangeError when the result would leave the 128-bit
  /// range (never for the capacity totals of pools SimConfig accepts).
  ExactResources& operator+=(const ExactResources& o);
  ExactResources& operator-=(const ExactResources& o);

  bool operator==(const ExactResources& o) const = default;

  /// The raw integers as (low, high) 64-bit word pairs per dimension, in
  /// kAllResources order: the snapshot encoding.
  using Words = std::array<std::uint64_t, 2 * kResourceCount>;
  Words words() const noexcept;
  static ExactResources from_words(const Words& words) noexcept;

 private:
  __extension__ using Raw = __int128;
  std::array<Raw, kResourceCount> v_{};
};

/// Throws ExactRangeError naming `what` unless `capacity` converts and
/// `workers` copies of it stay within ExactResources::kMaxTotal.
void check_pool_capacity(const ResourceVector& capacity, std::size_t workers,
                         std::string_view what);

}  // namespace tora::core
