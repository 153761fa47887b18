#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/lifecycle/category_table.hpp"
#include "core/record_store.hpp"

namespace tora::util {
class ByteWriter;
class ByteReader;
}  // namespace tora::util

namespace tora::core::resilience {

/// Churn-adaptive resilience knobs, shared by both runtimes (the protocol
/// manager measures time in pump ticks, the simulator in seconds — every
/// window below is in the owning runtime's clock unit). All four features
/// default OFF: a default-constructed config reproduces the legacy behavior
/// bit-for-bit, which is what keeps the seed-exact contract and the
/// crash-recovery fingerprints untouched.
///
/// Validated at construction of the owning runtime via validate(), the same
/// contract as AllocatorConfig.
struct ResilienceConfig {
  /// Per-category adaptive attempt deadlines (quantile × slack over the
  /// observed attempt wall times) instead of the one-size-fits-all timeout.
  bool deadlines = false;
  /// Speculative re-dispatch: duplicate a straggling Running attempt on a
  /// second worker; first result wins, the loser is charged to the
  /// speculative-waste ledger column.
  bool speculation = false;
  /// Per-worker EWMA reliability scores feeding placement preference and
  /// probationary re-admission instead of permanent quarantine.
  bool reliability = false;
  /// Windowed eviction-rate storm detector driving a degraded mode
  /// (speculation suspended, dispatch admission capped, deadlines widened).
  bool storm_control = false;

  // --- deadlines ---------------------------------------------------------
  /// Deadline = quantile(deadline_quantile) × deadline_slack of the
  /// category's attempt wall times; the static timeout below min_records.
  double deadline_quantile = 0.95;
  double deadline_slack = 2.0;
  /// Observations a category needs before its deadline adapts (mirrors the
  /// allocator's exploration min_records).
  std::size_t min_records = 10;

  // --- speculation -------------------------------------------------------
  /// An attempt running longer than quantile(straggler_quantile) ×
  /// straggler_slack is a straggler and eligible for duplication.
  double straggler_quantile = 0.75;
  double straggler_slack = 1.5;

  // --- reliability / probation ------------------------------------------
  /// EWMA weight of the newest event: score += decay · (outcome − score),
  /// outcome 1 for a delivered result, 0 for an eviction/timeout/death.
  double reliability_decay = 0.25;
  /// First quarantine sentence (ticks/seconds); each re-offense after
  /// release multiplies the next sentence by sentence_growth.
  double probation_sentence = 16.0;
  double sentence_growth = 2.0;

  // --- storm degradation -------------------------------------------------
  /// Sliding eviction-counting window length (ticks/seconds).
  double storm_window = 64.0;
  /// Evictions inside the window that enter degraded mode...
  std::size_t storm_enter = 6;
  /// ...and the count at or below which it exits.
  std::size_t storm_exit = 1;
  /// Max in-flight attempts admitted while degraded (admission control).
  std::size_t degraded_inflight_cap = 8;
  /// Deadline multiplier while degraded (evictions make wall times noisy;
  /// widening avoids spurious timeout storms on top of eviction storms).
  double degraded_deadline_widen = 2.0;

  bool enabled() const noexcept {
    return deadlines || speculation || reliability || storm_control;
  }

  /// Throws std::invalid_argument on out-of-range knobs. Runtimes call this
  /// at construction so a bad config fails fast, never mid-run.
  void validate() const;
};

/// Per-category attempt wall-time records on top of core::RecordStore's
/// SoA sorted run (amortized O(1) observe, an in-place merge on the first
/// quantile query after a batch). The same machinery the paper builds for resource
/// footprints, pointed at time.
class RuntimeHistogram {
 public:
  /// Records one attempt wall time. O(1) amortized.
  void observe(CategoryId category, double wall);

  /// Total observations for the category (0 for unseen ids).
  std::size_t records(CategoryId category) const noexcept;

  /// The q-quantile (q in (0, 1]) of the category's observed wall times, or
  /// nullopt for unseen categories. Non-const: staged records are merged on
  /// demand.
  std::optional<double> quantile(CategoryId category, double q);

  /// Bit-exact serialization (merged run + staged buffer per category).
  /// load() throws std::runtime_error, naming the field, on a category
  /// count beyond the remaining payload or a store RecordStore::load
  /// refuses.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  std::vector<RecordStore> per_category_;
};

/// Task-oriented deadlines: RuntimeHistogram + the quantile × slack formula,
/// falling back to the runtime's static timeout below min_records.
class DeadlineTracker {
 public:
  DeadlineTracker() = default;
  explicit DeadlineTracker(const ResilienceConfig& cfg) : cfg_(cfg) {}

  void observe(CategoryId category, double wall) {
    hist_.observe(category, wall);
  }

  /// True once the category has min_records observations (its deadline and
  /// straggler threshold are histogram-derived rather than fallbacks).
  bool adaptive(CategoryId category) const noexcept {
    return hist_.records(category) >= cfg_.min_records;
  }

  /// The attempt deadline for `category`: quantile × slack × widen when
  /// adaptive, `fallback` × widen otherwise (widen > 1 while a storm rages).
  double deadline(CategoryId category, double fallback, double widen = 1.0);

  /// The straggler threshold (speculation trigger), or nullopt below
  /// min_records — no speculation without evidence.
  std::optional<double> straggler_threshold(CategoryId category);

  std::size_t records(CategoryId category) const noexcept {
    return hist_.records(category);
  }

  void save(util::ByteWriter& w) const { hist_.save(w); }
  void load(util::ByteReader& r) { hist_.load(r); }

 private:
  ResilienceConfig cfg_;
  RuntimeHistogram hist_;
};

/// Per-worker reliability scores (EWMA of delivered results vs. evictions /
/// timeouts / deaths) plus the probation state machine that replaces
/// permanent quarantine:
///
///   clean ──offense──▶ ... ──quarantine()──▶ serving sentence
///        (scores only)                          │ sentence elapses
///                                               ▼
///     redeemed ◀──on_success (delivers)──── probationary
///        │                                      │ next quarantine()
///        └──▶ (normal placement)                ▼
///                                     serving DOUBLED sentence …
///
/// While serving, the worker is rejected outright (quarantined() == true).
/// Once the sentence elapses it is probationary: re-admitted, but placed
/// only when no non-probationary worker fits, until a delivered result
/// redeems it. A quarantine while probationary (or any later one) carries a
/// sentence multiplied by sentence_growth per prior conviction.
class ReliabilityTracker {
 public:
  ReliabilityTracker() = default;
  explicit ReliabilityTracker(const ResilienceConfig& cfg) : cfg_(cfg) {}

  /// The worker delivered a result (success or resource-exhausted — either
  /// way it did its job). Pulls the score toward 1 and redeems probation.
  void on_success(std::uint64_t worker);

  /// The worker ate an attempt: eviction, timeout or silence death. Pulls
  /// the score toward 0.
  void on_offense(std::uint64_t worker);

  /// EWMA score in [0, 1]; unseen workers start at 1 (trusted).
  double score(std::uint64_t worker) const noexcept;

  /// Convicts the worker at time `now`; returns the sentence length
  /// (probation_sentence × sentence_growth^prior_convictions).
  double quarantine(std::uint64_t worker, double now);

  /// Still serving its sentence at `now` (reject all traffic).
  bool quarantined(std::uint64_t worker, double now) const noexcept;

  /// Sentence elapsed but no result delivered since: re-admitted at reduced
  /// dispatch priority.
  bool probationary(std::uint64_t worker, double now) const noexcept;

  /// Times the worker has been convicted.
  std::size_t convictions(std::uint64_t worker) const noexcept;

  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  struct Entry {
    double score = 1.0;
    double release_at = 0.0;
    std::uint64_t convictions = 0;
    /// Convicted and not yet redeemed: serving while now < release_at,
    /// probationary after.
    bool convicted = false;
  };

  ResilienceConfig cfg_;
  std::map<std::uint64_t, Entry> entries_;  // ordered: deterministic save
};

/// Windowed eviction-rate detector: `storm_enter` evictions inside
/// `storm_window` enters degraded mode; it exits once the window drains to
/// `storm_exit` or fewer. Degraded mode is the caller's signal to suspend
/// speculation, cap admissions and widen deadlines.
class StormDetector {
 public:
  StormDetector() = default;
  explicit StormDetector(const ResilienceConfig& cfg) : cfg_(cfg) {}

  /// Records one eviction at time `now` (monotone across calls).
  void on_eviction(double now);

  /// Advances the window to `now`, possibly leaving degraded mode. Call on
  /// every tick/event so exit does not wait for the next eviction.
  void update(double now);

  bool degraded() const noexcept { return degraded_; }
  std::size_t storms_entered() const noexcept { return entered_; }
  std::size_t storms_exited() const noexcept { return exited_; }
  /// Evictions currently inside the window (diagnostics).
  std::size_t window_count() const noexcept { return window_.size(); }

  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  void prune(double now);

  ResilienceConfig cfg_;
  std::deque<double> window_;  ///< eviction timestamps, ascending
  bool degraded_ = false;
  std::size_t entered_ = 0;
  std::size_t exited_ = 0;
};

}  // namespace tora::core::resilience
