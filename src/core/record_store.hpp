#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/record.hpp"

namespace tora::util {
class ByteWriter;
class ByteReader;
}  // namespace tora::util

namespace tora::core {

/// Structure-of-arrays view of the value-sorted record history plus its
/// running prefix sums, handed to the break-point algorithms and to
/// BucketSet::from_sorted so they never re-scan the history from scratch:
///   sig_prefix[i]  = sum of significances[0, i)
///   vsig_prefix[i] = sum of values[j] * significances[j] for j in [0, i)
/// Both prefix spans have size() + 1 entries. The spans alias RecordStore
/// storage and are invalidated by the next add()/flush().
struct SortedRecords {
  std::span<const double> values;
  std::span<const double> significances;
  std::span<const double> sig_prefix;
  std::span<const double> vsig_prefix;

  std::size_t size() const noexcept { return values.size(); }
  bool empty() const noexcept { return values.empty(); }
};

/// The one forward recurrence behind every prefix array in the library:
///   sig_prefix[p + 1]  = sig_prefix[p]  + significances[p]
///   vsig_prefix[p + 1] = vsig_prefix[p] + values[p] * significances[p]
/// for p in [from, values.size()). Both prefix spans hold values.size() + 1
/// entries, and entries [0, from] must already cover the untouched prefix.
/// Any other summation order (blocked, pairwise, reversed) would move the
/// last bits of the sums and with them the bucket statistics. The two
/// running sums are carried in registers, so a step costs one add's
/// latency, not a store-to-load round trip through the prefix arrays.
void extend_prefix_sums(std::span<const double> values,
                        std::span<const double> significances,
                        std::span<double> sig_prefix,
                        std::span<double> vsig_prefix, std::size_t from);

/// The incremental record history behind BucketingPolicy and TovarPolicy.
///
/// add() is amortized O(1): new records accumulate in an unsorted staging
/// buffer. flush() merges the staging buffer into the main value-sorted run
/// in place (stable: ties keep arrival order, staged records land after
/// existing equal values — exactly the order repeated upper_bound insertion
/// would produce) and extends the prefix sums from the first position the
/// merge changed. Sorted views are only valid for the merged run, so callers
/// flush() before reading.
class RecordStore {
 public:
  /// Appends one record to the staging buffer. O(1) amortized.
  void add(double value, double significance);

  /// Merges staged records into the sorted run and extends the prefix sums.
  /// O(s log(n + s) + (n - p)) for s staged records over an n-record run
  /// (the sort, one binary search per staged record, and the tail), where p
  /// is the merged position of the smallest staged record: records below it
  /// neither move nor get their prefix sums recomputed. No-op when nothing
  /// is staged.
  void flush();

  bool empty() const noexcept { return values_.empty() && staged_.empty(); }
  /// Total records observed (merged + staged).
  std::size_t size() const noexcept { return values_.size() + staged_.size(); }
  std::size_t merged_count() const noexcept { return values_.size(); }
  std::size_t staged_count() const noexcept { return staged_.size(); }
  bool has_staged() const noexcept { return !staged_.empty(); }

  /// Views over the merged sorted run (call flush() first to cover staged
  /// records). Invalidated by add()/flush().
  SortedRecords sorted() const noexcept {
    return {values_, sigs_, sig_prefix_, vsig_prefix_};
  }
  std::span<const double> values() const noexcept { return values_; }
  std::span<const double> significances() const noexcept { return sigs_; }

  /// Bit-exact serialization: merged run then staging buffer (in arrival
  /// order), each as a u64 count followed by (value, significance) f64
  /// pairs. load() rebuilds the prefix sums with extend_prefix_sums from 0,
  /// the same recurrence flush() extends. It throws std::runtime_error,
  /// naming the field, on a count beyond the remaining payload, a value or
  /// significance that observe() would refuse, or an unsorted merged run.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  std::vector<double> values_;  // merged run, sorted ascending by value
  std::vector<double> sigs_;    // parallel to values_
  std::vector<double> sig_prefix_{0.0};
  std::vector<double> vsig_prefix_{0.0};
  std::vector<Record> staged_;  // arrival order until flush() sorts it
};

}  // namespace tora::core
