#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/record.hpp"
#include "core/snapshot_fields.hpp"

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
/// would produce) and lowers a stale mark to the first position the merge
/// changed. sorted() extends the prefix sums from that mark on its first
/// read, so merges between two reads cost one pass, and a reader of values
/// alone never pays for sums. Sorted views are only valid for the merged
/// run, so callers flush() before reading.
class RecordStore {
 public:
  /// Appends one record to the staging buffer. O(1) amortized.
  void add(double value, double significance);

  /// Merges staged records into the sorted run. O(s log(n + s) + (n - p))
  /// for s staged records over an n-record run (the sort, one binary search
  /// per staged record, and the moved tail), where p is the merged position
  /// of the smallest staged record: records below it do not move, and the
  /// prefix sums stay valid up to p. No-op when nothing is staged.
  void flush();

  bool empty() const noexcept { return values_.empty() && staged_.empty(); }
  /// Total records observed (merged + staged).
  std::size_t size() const noexcept { return values_.size() + staged_.size(); }
  std::size_t merged_count() const noexcept { return values_.size(); }
  std::size_t staged_count() const noexcept { return staged_.size(); }
  bool has_staged() const noexcept { return !staged_.empty(); }

  /// Views over the merged sorted run (call flush() first to cover staged
  /// records), extending the prefix sums from the stale mark first: the same
  /// recurrence from the same valid entry, so the same bits as extending on
  /// every merge. Invalidated by add()/flush().
  SortedRecords sorted() const noexcept;
  std::span<const double> values() const noexcept { return values_; }
  std::span<const double> significances() const noexcept { return sigs_; }

  /// Bit-exact serialization: merged run then staging buffer (in arrival
  /// order), each as a u64 count followed by (value, significance) f64
  /// pairs. Every record must be one observe() would accept; load refuses
  /// an unsorted merged run and marks every prefix sum stale, so the next
  /// sorted() rebuilds them with extend_prefix_sums from 0.
  void save(util::ByteWriter& w) const { snapshot::save(w, *this); }
  void load(util::ByteReader& r) { snapshot::load(r, *this); }

  static constexpr auto fields() {
    using S = RecordStore;
    return snapshot::section(
        "RecordStore", &S::after_load,
        snapshot::via(
            "merged", [](const S& s) { return s.merged_records(); },
            [](S& s, std::vector<Record> merged) {
              s.values_.clear();
              s.sigs_.clear();
              for (const Record& r : merged) {
                s.values_.push_back(r.value);
                s.sigs_.push_back(r.significance);
              }
            }),
        snapshot::field("staged", &S::staged_));
  }

 private:
  std::vector<Record> merged_records() const;
  void after_load();

  std::vector<double> values_;  // merged run, sorted ascending by value
  std::vector<double> sigs_;    // parallel to values_
  // A cache sorted() completes on read; flush() sizes it.
  mutable std::vector<double> sig_prefix_{0.0};
  mutable std::vector<double> vsig_prefix_{0.0};
  /// Prefix entries [0, stale_from_] are valid; sorted() extends the rest.
  mutable std::size_t stale_from_ = 0;
  std::vector<Record> staged_;  // arrival order until flush() sorts it
};

}  // namespace tora::core
