#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/bucket.hpp"
#include "core/policy.hpp"
#include "core/record.hpp"
#include "core/record_store.hpp"
#include "util/rng.hpp"

namespace tora::core {

/// Common machinery for the bucketing family (Greedy, Exhaustive,
/// Quantized): maintains the value-sorted record history, rebuilds the
/// bucket configuration on the epoch schedule below, and implements the
/// shared probabilistic predict/retry protocol of §IV-A:
///   * predict: sample a bucket by probability, allocate its rep;
///   * retry:   sample among buckets with rep > failed allocation; when none
///              exists, double the failed allocation (clamped at the
///              configured retry capacity, if any).
///
/// Incremental engine: observe() appends to a RecordStore staging buffer in
/// amortized O(1); the sorted run, its prefix sums and the bucket set are
/// refreshed together at rebuild points. With the default RebuildSchedule
/// (growth = 0, epoch k = 1) every observation schedules a rebuild before
/// the next predict — bit-identical buckets and RNG draws to the original
/// rebuild-per-completion implementation, which is the mode the parity and
/// crash-recovery tests pin. growth > 0 lets the rebuild epoch grow with the
/// history size, amortizing rebuild cost for throughput experiments; stale
/// predictions between epochs are then deliberate, and retry() still
/// rebuilds exactly-on-demand so escalations always see the full history.
///
/// Subclasses implement compute_break_indices() — the only place Greedy and
/// Exhaustive Bucketing diverge (paper §IV-A last paragraph).
class BucketingPolicy : public ResourcePolicy {
 public:
  /// When to fold staged observations into a fresh bucket configuration.
  /// The epoch k (observations per scheduled rebuild) is
  ///   k = clamp(growth * history_size, 1, max_epoch),
  /// so with growth > 0 rebuild points space out geometrically as the
  /// history grows. growth = 0 (default) pins k = 1: rebuild on every
  /// dirtying observation, the original behavior.
  ///
  /// Schedules with growth > 0 are outside the bit-exact crash-recovery
  /// contract: replaying the completion history cannot reproduce which
  /// stale bucket configuration a crashed instance was serving mid-epoch.
  struct RebuildSchedule {
    double growth = 0.0;
    std::size_t max_epoch = 4096;

    std::size_t epoch_for(std::size_t history_size) const noexcept;
  };

  explicit BucketingPolicy(util::Rng rng) : rng_(rng) {}

  void observe(double peak_value, double significance) override;
  double predict() override;
  double retry(double failed_alloc) override;
  /// The lowest bucket representative: every draw returns some bucket's
  /// representative. Rebuilds first exactly when predict() would.
  double predict_floor() override;

  std::size_t record_count() const override { return store_.size(); }

  /// Merges staged observations into the sorted run (no bucket rebuild).
  /// Called by checkpoint/recovery writers and the change detector so they
  /// always see fully-merged state.
  void flush_observations() override { store_.flush(); }

  /// The per-instance Rng (bucket sampling draws), serialized for crash
  /// recovery. Records are rebuilt by history replay; the Rng position is
  /// the only state that is not.
  std::string sampler_state() const override {
    return snapshot::to_bytes(*this);
  }
  void restore_sampler_state(std::string_view state) override {
    snapshot::from_bytes(state, *this);
  }

  /// The sampler state's field list.
  static constexpr auto fields() {
    return snapshot::section(
        "BucketingPolicy", snapshot::field("rng", &BucketingPolicy::rng_));
  }

  /// The bucket configuration predict() would sample from, rebuilding first
  /// if a rebuild is scheduled (always, at the default k = 1). Under a
  /// growth > 0 schedule this view may lag staged observations; use
  /// fresh_buckets() for the fully-merged configuration. Exposed for tests,
  /// benchmarks and the figure harnesses. Requires at least one record.
  const BucketSet& buckets();

  /// Forces a merge + rebuild if any observation is not yet reflected, then
  /// returns the configuration. Requires at least one record.
  const BucketSet& fresh_buckets();

  /// Number of state rebuilds performed so far (benchmark instrumentation).
  std::size_t rebuild_count() const noexcept { return rebuilds_; }

  /// Observations staged but not yet merged into the sorted run.
  std::size_t staged_count() const noexcept { return store_.staged_count(); }

  /// Value-sorted records, materialized from the SoA store (merges staged
  /// observations first). Convenience for tests and inspection; hot paths
  /// use values()/significances().
  std::vector<Record> records();

  /// SoA views of the value-sorted history (staged observations are merged
  /// first). Invalidated by the next observe()/rebuild.
  std::span<const double> values();
  std::span<const double> significances();

  void set_rebuild_schedule(const RebuildSchedule& schedule) noexcept {
    schedule_ = schedule;
  }
  const RebuildSchedule& rebuild_schedule() const noexcept {
    return schedule_;
  }

  /// Ceiling for the doubling escalation in retry(): when no bucket covers
  /// the failure, the doubled allocation is clamped to this capacity
  /// (mirroring the TaskAllocator's worker-capacity clamp) as long as the
  /// capacity still exceeds the failed allocation — otherwise the unclamped
  /// doubling is returned so retry chains keep terminating. Defaults to
  /// +infinity (no clamp).
  void set_retry_capacity(double capacity) noexcept {
    retry_capacity_ = capacity;
  }
  double retry_capacity() const noexcept { return retry_capacity_; }

  /// Runs the subclass break-point algorithm on an arbitrary sorted view.
  /// Consumes no Rng state. Exposed for the differential tests and the
  /// rebuild benchmark, which replay reference engines outside the store.
  std::vector<std::size_t> break_indices(const SortedRecords& sorted) {
    return compute_break_indices(sorted);
  }

 protected:
  /// Returns the strictly increasing bucket END indices over the sorted
  /// record view; the last element must be sorted.size() - 1. Called only
  /// with at least one record present.
  virtual std::vector<std::size_t> compute_break_indices(
      const SortedRecords& sorted) = 0;

  util::Rng& rng() noexcept { return rng_; }

 private:
  void rebuild_now();
  /// A rebuild is scheduled (epoch boundary crossed) or none happened yet.
  bool rebuild_pending() const noexcept { return rebuild_due_ || !built_; }
  /// The current bucket set does not reflect every observation (regardless
  /// of the schedule) — retry() and fresh_buckets() refuse staleness.
  bool stale() const noexcept {
    return rebuild_pending() || store_.size() != built_size_;
  }

  util::Rng rng_;
  RecordStore store_;
  BucketSet buckets_;
  RebuildSchedule schedule_;
  double retry_capacity_ = std::numeric_limits<double>::infinity();
  bool rebuild_due_ = true;
  bool built_ = false;
  std::size_t built_size_ = 0;          // history size at the last rebuild
  std::size_t observed_since_rebuild_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace tora::core
