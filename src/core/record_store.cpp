#include "core/record_store.hpp"

#include <algorithm>

#include "core/policy.hpp"

namespace tora::core {

void extend_prefix_sums(std::span<const double> values,
                        std::span<const double> significances,
                        std::span<double> sig_prefix,
                        std::span<double> vsig_prefix, std::size_t from) {
  const std::size_t n = values.size();
  if (from >= n) return;
  // The running sums live in locals. Read back from the prefix arrays, each
  // step would wait on the store before it: the four spans may alias, so
  // the compiler reloads sig_prefix[p] right after the previous step
  // stored it.
  double sig = sig_prefix[from];
  double vsig = vsig_prefix[from];
  for (std::size_t p = from; p < n; ++p) {
    sig = sig + significances[p];
    vsig = vsig + values[p] * significances[p];
    sig_prefix[p + 1] = sig;
    vsig_prefix[p + 1] = vsig;
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

  // The prefix sums stay valid up to the smallest staged record's slot
  // (`out`): the merge preserved that prefix of the run, so sorted() can
  // continue the recurrence from there exactly as a full forward recompute
  // would.
  sig_prefix_.resize(n + s + 1);
  vsig_prefix_.resize(n + s + 1);
  stale_from_ = std::min(stale_from_, out);
}

SortedRecords RecordStore::sorted() const noexcept {
  if (stale_from_ < values_.size()) {
    extend_prefix_sums(values_, sigs_, sig_prefix_, vsig_prefix_, stale_from_);
    stale_from_ = values_.size();
  }
  return {values_, sigs_, sig_prefix_, vsig_prefix_};
}

std::vector<Record> RecordStore::merged_records() const {
  std::vector<Record> out;
  out.reserve(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out.push_back({values_[i], sigs_[i]});
  }
  return out;
}

void RecordStore::after_load() {
  // flush() binary-searches the merged run.
  for (std::size_t i = 1; i < values_.size(); ++i) {
    if (values_[i] < values_[i - 1]) {
      throw SnapshotError("RecordStore", "merged",
                          "values must be sorted ascending");
    }
  }
  sig_prefix_.assign(values_.size() + 1, 0.0);
  vsig_prefix_.assign(values_.size() + 1, 0.0);
  stale_from_ = 0;
}

}  // namespace tora::core
