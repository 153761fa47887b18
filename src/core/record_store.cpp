#include "core/record_store.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace tora::core {

void extend_prefix_sums(std::span<const double> values,
                        std::span<const double> significances,
                        std::span<double> sig_prefix,
                        std::span<double> vsig_prefix, std::size_t from) {
  for (std::size_t p = from; p < values.size(); ++p) {
    sig_prefix[p + 1] = sig_prefix[p] + significances[p];
    vsig_prefix[p + 1] = vsig_prefix[p] + values[p] * significances[p];
  }
}

void RecordStore::add(double value, double significance) {
  staged_.push_back({value, significance});
}

void RecordStore::flush() {
  const std::size_t s = staged_.size();
  if (s == 0) return;
  const std::size_t n = values_.size();

  // Sort the staged records by value, keeping arrival order on ties.
  if (s > 1) {
    std::stable_sort(staged_.begin(), staged_.end(),
                     [](const Record& a, const Record& b) {
                       return a.value < b.value;
                     });
  }

  // Merge in place from the back, largest staged record first. The merged
  // records strictly above it move up as one block, and it lands just below
  // them: after every previously observed equal value, the position a
  // per-observe upper_bound insert would have chosen. Once every staged
  // record is placed, the run below the last landing slot is untouched.
  values_.resize(n + s);
  sigs_.resize(n + s);
  double* const vals = values_.data();
  double* const sigs = sigs_.data();
  std::size_t i = n;        // merged records not yet moved: [0, i)
  std::size_t out = n + s;  // slots [out, n + s) are final
  for (std::size_t j = s; j > 0; --j) {
    const Record& next = staged_[j - 1];
    const auto lo = static_cast<std::size_t>(
        std::upper_bound(vals, vals + i, next.value) - vals);
    std::move_backward(vals + lo, vals + i, vals + out);
    std::move_backward(sigs + lo, sigs + i, sigs + out);
    out -= i - lo + 1;
    i = lo;
    vals[out] = next.value;
    sigs[out] = next.significance;
  }
  staged_.clear();

  // Extend the prefix sums from the smallest staged record's slot (`out`).
  // Entries before it are untouched because the merge preserved that prefix
  // of the run, so the recurrence continues exactly as a full forward
  // recompute would.
  sig_prefix_.resize(n + s + 1);
  vsig_prefix_.resize(n + s + 1);
  extend_prefix_sums(values_, sigs_, sig_prefix_, vsig_prefix_, out);
}

void RecordStore::save(util::ByteWriter& w) const {
  w.u64(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    w.f64(values_[i]);
    w.f64(sigs_[i]);
  }
  w.u64(staged_.size());
  for (const Record& r : staged_) {
    w.f64(r.value);
    w.f64(r.significance);
  }
}

void RecordStore::load(util::ByteReader& r) {
  values_.clear();
  sigs_.clear();
  staged_.clear();
  const std::uint64_t n = r.u64();
  values_.reserve(n);
  sigs_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    values_.push_back(r.f64());
    sigs_.push_back(r.f64());
  }
  const std::uint64_t s = r.u64();
  staged_.reserve(s);
  for (std::uint64_t i = 0; i < s; ++i) {
    const double value = r.f64();
    staged_.push_back({value, r.f64()});
  }
  sig_prefix_.assign(values_.size() + 1, 0.0);
  vsig_prefix_.assign(values_.size() + 1, 0.0);
  extend_prefix_sums(values_, sigs_, sig_prefix_, vsig_prefix_, 0);
}

}  // namespace tora::core
