#include "core/bucket.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tora::core {

BucketSet BucketSet::from_break_indices(std::span<const Record> sorted,
                                        std::span<const std::size_t> ends) {
  if (sorted.empty()) throw std::invalid_argument("BucketSet: no records");
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].value < sorted[i - 1].value) {
      throw std::invalid_argument("BucketSet: records must be value-sorted");
    }
  }

  const std::size_t n = sorted.size();
  std::vector<double> values(n);
  std::vector<double> sigs(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = sorted[i].value;
    sigs[i] = sorted[i].significance;
  }
  std::vector<double> sig_prefix(n + 1, 0.0);
  std::vector<double> vsig_prefix(n + 1, 0.0);
  extend_prefix_sums(values, sigs, sig_prefix, vsig_prefix, 0);
  return from_sorted({values, sigs, sig_prefix, vsig_prefix}, ends);
}

BucketSet BucketSet::from_sorted(const SortedRecords& sorted,
                                 std::span<const std::size_t> ends) {
  const std::size_t n = sorted.size();
  assert(sorted.significances.size() == n);
  assert(sorted.sig_prefix.size() == n + 1);
  assert(sorted.vsig_prefix.size() == n + 1);
#ifndef NDEBUG
  for (std::size_t i = 1; i < n; ++i) {
    assert(!(sorted.values[i] < sorted.values[i - 1]) &&
           "BucketSet::from_sorted: records must be value-sorted");
  }
#endif
  if (n == 0) throw std::invalid_argument("BucketSet: no records");
  if (ends.empty() || ends.back() != n - 1) {
    throw std::invalid_argument(
        "BucketSet: break list must end at the last record index");
  }
  const double total_sig = sorted.sig_prefix[n];
  if (!(total_sig > 0.0)) {
    throw std::invalid_argument("BucketSet: total significance must be > 0");
  }

  BucketSet set;
  set.buckets_.reserve(ends.size());
  std::size_t begin = 0;
  for (std::size_t end : ends) {
    if (end < begin) {
      throw std::invalid_argument("BucketSet: ends must be strictly increasing");
    }
    if (end >= n) {
      throw std::invalid_argument("BucketSet: end index out of range");
    }
    Bucket b;
    b.begin = begin;
    b.end = end;
    b.sig_sum = sorted.sig_prefix[end + 1] - sorted.sig_prefix[begin];
    const double vsig = sorted.vsig_prefix[end + 1] - sorted.vsig_prefix[begin];
    b.rep = sorted.values[end];  // records are sorted, so the end is the max
    b.prob = b.sig_sum / total_sig;
    b.weighted_mean = b.sig_sum > 0.0 ? vsig / b.sig_sum : b.rep;
    set.buckets_.push_back(b);
    begin = end + 1;
  }
  set.finalize();
  return set;
}

void BucketSet::finalize() {
  const std::size_t n = buckets_.size();
  reps_.resize(n);
  cum_probs_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    reps_[i] = buckets_[i].rep;
    acc += buckets_[i].prob;
    cum_probs_[i] = acc;
  }
  // Suffix partial-sum rows for sample_above. Row f repeats exactly the
  // forward accumulation the linear scan performs over buckets [f, n), so
  // binary-searching a row lands on the bit-identical bucket.
  if (n <= kSampleTableMaxBuckets) {
    tri_.resize(n * (n + 1) / 2);
    tri_row_offsets_.resize(n);
    std::size_t off = 0;
    for (std::size_t f = 0; f < n; ++f) {
      tri_row_offsets_[f] = off;
      double row_acc = 0.0;
      for (std::size_t j = f; j < n; ++j) {
        row_acc += buckets_[j].prob;
        tri_[off++] = row_acc;
      }
    }
  } else {
    tri_.clear();
    tri_row_offsets_.clear();
  }
}

std::size_t BucketSet::index_for(double u) const {
  if (buckets_.empty()) throw std::logic_error("BucketSet: empty");
  // First bucket whose cumulative probability exceeds u — the same bucket
  // the original accumulate-and-compare loop (acc += prob; u < acc) chose.
  const auto it = std::upper_bound(cum_probs_.begin(), cum_probs_.end(), u);
  if (it == cum_probs_.end()) {
    return buckets_.size() - 1;  // floating-point slack: the top bucket
  }
  return static_cast<std::size_t>(it - cum_probs_.begin());
}

std::size_t BucketSet::sample_index(util::Rng& rng) const {
  if (buckets_.empty()) throw std::logic_error("BucketSet: empty");
  return index_for(rng.uniform01());
}

double BucketSet::sample_allocation(util::Rng& rng) const {
  return buckets_[sample_index(rng)].rep;
}

std::optional<double> BucketSet::sample_above(double failed_alloc,
                                              util::Rng& rng) const {
  const std::size_t n = buckets_.size();
  if (tri_row_offsets_.size() != n) {
    // Oversized set: original linear scans (identical arithmetic).
    double total = 0.0;
    for (const Bucket& b : buckets_) {
      if (b.rep > failed_alloc) total += b.prob;
    }
    if (!(total > 0.0)) return std::nullopt;
    const double u = rng.uniform01() * total;
    double acc = 0.0;
    for (const Bucket& b : buckets_) {
      if (b.rep <= failed_alloc) continue;
      acc += b.prob;
      if (u < acc) return b.rep;
    }
    for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
      if (it->rep > failed_alloc) return it->rep;
    }
    return std::nullopt;
  }

  if (n == 0) return std::nullopt;
  // Reps are non-decreasing, so the eligible buckets (rep > failed_alloc)
  // are exactly the suffix starting at the first rep above the failure.
  const std::size_t f = static_cast<std::size_t>(
      std::upper_bound(reps_.begin(), reps_.end(), failed_alloc) -
      reps_.begin());
  if (f == n) return std::nullopt;
  const auto row_begin = tri_.begin() +
                         static_cast<std::ptrdiff_t>(tri_row_offsets_[f]);
  const auto row_end = row_begin + static_cast<std::ptrdiff_t>(n - f);
  const double total = *(row_end - 1);
  if (!(total > 0.0)) return std::nullopt;
  const double u = rng.uniform01() * total;
  const auto it = std::upper_bound(row_begin, row_end, u);
  if (it != row_end) {
    return buckets_[f + static_cast<std::size_t>(it - row_begin)].rep;
  }
  // Floating-point slack: the highest eligible rep (the top bucket — its
  // rep is >= reps_[f] > failed_alloc).
  return buckets_[n - 1].rep;
}

double BucketSet::max_rep() const {
  if (buckets_.empty()) throw std::logic_error("BucketSet: empty");
  return buckets_.back().rep;
}

double expected_waste(const BucketSet& set) {
  const auto& b = set.buckets();
  const std::size_t n = b.size();
  if (n == 0) throw std::invalid_argument("expected_waste: empty bucket set");

  // T[i][j]: expected waste when the next task's consumption falls in bucket
  // i but bucket j is chosen for its first allocation (paper §IV-C).
  //   i <= j: the allocation rep_j covers the task -> waste rep_j - v_i.
  //   i >  j: rep_j is exhausted entirely (failed allocation), then a higher
  //           bucket k > j is chosen with renormalized probability.
  // Rows are independent; each row is filled right-to-left because T[i][j]
  // for j < i depends on T[i][k] with k > j.
  std::vector<std::vector<double>> t(n, std::vector<double>(n, 0.0));

  // Suffix probability sums: suffix[j] = sum_{m >= j} prob_m.
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t j = n; j-- > 0;) suffix[j] = suffix[j + 1] + b[j].prob;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t jj = n; jj-- > 0;) {
      if (i <= jj) {
        t[i][jj] = b[jj].rep - b[i].weighted_mean;
      } else {
        double escalated = 0.0;
        const double denom = suffix[jj + 1];
        if (denom > 0.0) {
          for (std::size_t k = jj + 1; k < n; ++k) {
            escalated += (b[k].prob / denom) * t[i][k];
          }
        }
        t[i][jj] = b[jj].rep + escalated;
      }
    }
  }

  double w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w += b[i].prob * b[j].prob * t[i][j];
    }
  }
  return w;
}

}  // namespace tora::core
