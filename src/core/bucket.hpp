#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/record.hpp"
#include "core/record_store.hpp"
#include "util/rng.hpp"

namespace tora::core {

/// A contiguous range of the value-sorted record list, reduced to the three
/// quantities the allocation logic needs (paper §IV-A):
///   rep           - the maximum record value in the bucket; the allocation
///                   handed out when this bucket is chosen,
///   prob          - significance share: sum of record significances in this
///                   bucket over the total significance of all records,
///   weighted_mean - significance-weighted mean value, the estimate of the
///                   next task's consumption if it falls in this bucket
///                   (v_lo / v_hi / v_i in the paper's cost derivations).
struct Bucket {
  double rep = 0.0;
  double prob = 0.0;
  double weighted_mean = 0.0;
  std::size_t begin = 0;  ///< first record index (inclusive, sorted order)
  std::size_t end = 0;    ///< last record index (inclusive)
  double sig_sum = 0.0;   ///< total significance of contained records

  std::size_t size() const noexcept { return end - begin + 1; }
};

/// An immutable set of buckets plus the probabilistic choice rules shared by
/// every bucketing-family policy (Greedy, Exhaustive, Quantized).
///
/// Sampling is O(log B) in the bucket count B: construction precomputes the
/// cumulative probability array (sample_index) and, for sets up to
/// kSampleTableMaxBuckets buckets, per-suffix partial-sum rows
/// (sample_above). Both are built with the same forward accumulation order
/// the original linear scans used, so every draw maps to the bit-identical
/// bucket choice; larger sets fall back to the original linear scans.
class BucketSet {
 public:
  BucketSet() = default;

  /// Builds buckets from a value-sorted record list and a strictly
  /// increasing list of bucket END indices whose last element must be
  /// `sorted.size() - 1`. Throws std::invalid_argument on malformed input,
  /// including unsorted records. Computes the prefix sums with
  /// extend_prefix_sums (the RecordStore recurrence) and hands them to
  /// from_sorted, so a set built here equals the one a policy builds from
  /// its store bit for bit.
  static BucketSet from_break_indices(std::span<const Record> sorted,
                                      std::span<const std::size_t> ends);

  /// Builds buckets from a sorted view with its maintained prefix sums:
  /// fill_buckets() for the statistics, then the sampling tables, which
  /// cost O(B²) in the bucket count B, independent of the record count.
  static BucketSet from_sorted(const SortedRecords& sorted,
                               std::span<const std::size_t> ends);

  const std::vector<Bucket>& buckets() const noexcept { return buckets_; }
  bool empty() const noexcept { return buckets_.empty(); }
  std::size_t size() const noexcept { return buckets_.size(); }

  /// Picks a bucket index at random, weighted by bucket probabilities.
  /// Requires a non-empty set.
  std::size_t sample_index(util::Rng& rng) const;

  /// The bucket a uniform draw u in [0, 1) selects: the first index whose
  /// cumulative probability exceeds u. When rounding makes the probabilities
  /// sum to less than 1 and u lands beyond the last cumulative entry, the
  /// draw falls into the top bucket (the documented floating-point slack).
  /// Exposed so tests can exercise the selection rule deterministically.
  std::size_t index_for(double u) const;

  /// First allocation: the representative value of a probabilistically
  /// chosen bucket. Requires a non-empty set.
  double sample_allocation(util::Rng& rng) const;

  /// Retry allocation after an execution that exhausted `failed_alloc`:
  /// restricts to buckets with rep > failed_alloc, renormalizes their
  /// probabilities and samples among them (paper §IV-A). Returns nullopt
  /// when no bucket is high enough — the caller must escalate by doubling.
  std::optional<double> sample_above(double failed_alloc,
                                     util::Rng& rng) const;

  /// Largest representative value (the top bucket's rep). Requires a
  /// non-empty set.
  double max_rep() const;

  /// Bucket-count ceiling for the precomputed sample_above suffix rows
  /// (memory is quadratic in the bucket count). Sets above it sample with
  /// the original linear scans — same draws, just O(B).
  static constexpr std::size_t kSampleTableMaxBuckets = 64;

 private:
  void finalize();

  std::vector<Bucket> buckets_;
  // Sampling tables, rebuilt by finalize():
  //   reps_[i]      = buckets_[i].rep (non-decreasing; binary-searched to
  //                   find the first bucket above a failed allocation),
  //   cum_probs_[i] = prob[0] + ... + prob[i] (forward order),
  //   tri_ row f    = partial sums prob[f], prob[f]+prob[f+1], ... — the
  //                   renormalization run sample_above accumulates when the
  //                   eligible set starts at bucket f. Row f lives at
  //                   tri_[tri_row_offsets_[f] ...] with size() - f entries;
  //                   empty when the set exceeds kSampleTableMaxBuckets.
  std::vector<double> reps_;
  std::vector<double> cum_probs_;
  std::vector<double> tri_;
  std::vector<std::size_t> tri_row_offsets_;
};

/// The per-bucket statistics behind every BucketSet: replaces `out` with
/// one Bucket per END index in `ends` (strictly increasing, the last one
/// `sorted.size() - 1`). Each bucket's significance and value·significance
/// sums are prefix differences, so the cost is O(B) in the bucket count B,
/// independent of the record count. Throws std::invalid_argument on a
/// malformed break list or a total significance that is not > 0. The O(n)
/// sortedness check is a debug-only assertion: the RecordStore merge
/// guarantees order.
///
/// With integer significances whose sums stay below 2^53 (task ids, or
/// 1.0) the differences are exact, so sig_sum and prob equal a per-bucket
/// forward scan bit for bit; weighted_mean may differ from such a scan in
/// its last bits.
void fill_buckets(const SortedRecords& sorted,
                  std::span<const std::size_t> ends, std::vector<Bucket>& out);

/// Sig-weighted expected waste of a bucket configuration under the paper's
/// retry model, computed with the Exhaustive Bucketing cost table T[i][j]
/// (§IV-C), one row at a time in `scratch` (resized to 2B + 1 doubles), so
/// a caller scoring many configurations reuses one buffer. Exhaustive
/// Bucketing scores its candidates with it. Requires a non-empty
/// configuration.
double expected_waste(std::span<const Bucket> buckets,
                      std::vector<double>& scratch);

/// The same cost for a built set (tests and the Monte-Carlo oracle).
double expected_waste(const BucketSet& set);

}  // namespace tora::core
