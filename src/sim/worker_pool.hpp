#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/lifecycle/placement_index.hpp"
#include "core/resources.hpp"
#include "sim/worker.hpp"

namespace tora::sim {

/// Churn model for the opportunistic pool (paper §V-A: "20 to 50 workers
/// depending on the availability of the local HTCondor cluster"). Joins are
/// a Poisson process; each worker's lifetime is exponential. The pool is
/// bounded: joins are dropped at `max_workers`, departures are deferred at
/// `min_workers`.
struct ChurnConfig {
  bool enabled = true;
  std::size_t initial_workers = 35;
  std::size_t min_workers = 20;
  std::size_t max_workers = 50;
  double mean_interarrival_s = 120.0;
  double mean_lifetime_s = 3600.0;

  /// Eviction-storm bursts on top of the Poisson churn (0 = no storms, the
  /// default — storms never alter an existing scenario unless asked for).
  /// Every `storm_interval_s` a burst begins: each alive worker is evicted
  /// with probability `storm_evict_fraction` (min_workers is ignored — the
  /// burst models a scavenger losing its borrowed cluster), and joins are
  /// suppressed for `storm_duration_s`.
  double storm_interval_s = 0.0;
  double storm_duration_s = 0.0;
  double storm_evict_fraction = 0.0;
};

/// How the scheduler chooses among workers that can fit an allocation.
/// All policies break ties by ascending worker id, so placement is
/// deterministic.
enum class Placement {
  FirstFit,  ///< lowest-id worker that fits (the default)
  BestFit,   ///< worker with the least normalized slack left after placing
  WorstFit,  ///< worker with the most normalized slack left after placing
};

/// Container for the alive workers; placement queries are deterministic.
/// Workers may be heterogeneous: add_worker takes an optional per-worker
/// capacity (defaulting to the pool's base capacity). Every change to a
/// worker's free capacity goes through the pool (start, finish), which
/// keeps the placement index exact.
class WorkerPool {
 public:
  explicit WorkerPool(core::ResourceVector worker_capacity)
      : capacity_(worker_capacity) {}

  // The slots point into workers_: a copy would alias the original's
  // workers. Moves keep the map's nodes, so they stay valid.
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  WorkerPool(WorkerPool&&) = default;
  WorkerPool& operator=(WorkerPool&&) = default;

  /// Adds a worker with the pool's base capacity; returns its id.
  /// Ids are never reused.
  std::uint64_t add_worker();

  /// Adds a worker with an explicit capacity (heterogeneous pools).
  std::uint64_t add_worker(const core::ResourceVector& capacity);

  /// Removes a worker; returns the task ids that were running on it (the
  /// caller evicts/requeues them). Throws if the id is not alive.
  std::vector<std::uint64_t> remove_worker(std::uint64_t id);

  bool alive(std::uint64_t id) const noexcept { return workers_.count(id) > 0; }
  /// Throws std::logic_error for an id that is not alive.
  const Worker& worker(std::uint64_t id) const;

  /// Worker::start / Worker::finish on worker `id`, keeping the placement
  /// index and the exact totals in step. Throw std::logic_error
  /// for an id that is not alive and whatever the Worker call throws.
  void start(std::uint64_t id, std::uint64_t task_id,
             const core::ResourceVector& alloc);
  void finish(std::uint64_t id, std::uint64_t task_id,
              const core::ResourceVector& alloc);

  std::size_t size() const noexcept { return workers_.size(); }

  /// A worker that fits `alloc`, chosen per `placement`.
  /// `exclude` is skipped (speculative duplicates must not land on the
  /// worker already running the primary attempt). A probe no worker can
  /// hold is refused at the index root in O(1); a first fit descends to
  /// the lowest-id worker that fits in O(log W).
  std::optional<std::uint64_t> find_worker_for(
      const core::ResourceVector& alloc,
      Placement placement = Placement::FirstFit,
      std::optional<std::uint64_t> exclude = std::nullopt) const;

  /// False when find_worker_for would refuse `alloc`, and everything
  /// larger, at the index root. O(1).
  bool may_fit(const core::ResourceVector& alloc) const noexcept {
    return index_.admits_any(alloc);
  }

  /// The alive workers' summed commitments (live speculative duplicates
  /// included) and capacities, exact. start, finish, add_worker and
  /// remove_worker keep them in O(1) each, and exact sums do not depend on
  /// order: they equal a fresh sum over workers() bit for bit, whatever the
  /// join/leave history. The committed total of an idle pool is exactly 0.
  const core::ExactResources& committed_total() const noexcept {
    return committed_total_;
  }
  const core::ExactResources& capacity_total() const noexcept {
    return capacity_total_;
  }

  const std::map<std::uint64_t, Worker>& workers() const noexcept {
    return workers_;
  }

  /// Snapshot/restore for simulation resume: the never-reused id counter,
  /// the alive-worker map (each worker's float state) and each worker's
  /// exact commitment, in id order, behind a format mark. The slots,
  /// placement index and both totals are derived:
  /// the post-load step rebuilds them (exact sums, so in any order), after
  /// refusing worker ids that do not ascend strictly below the id counter
  /// and exact commitments that are negative, above capacity or left on an
  /// idle worker.
  void save_state(util::ByteWriter& w) const { core::snapshot::save(w, *this); }
  void load_state(util::ByteReader& r) { core::snapshot::load(r, *this); }

  static constexpr auto fields() {
    using P = WorkerPool;
    using core::snapshot::field;
    return core::snapshot::section(
        "WorkerPool", &P::after_load, field("next_id", &P::next_id_),
        field("workers", &P::workers_),
        // A NaN's bits: what a build that kept a float capacity sum here
        // wrote cannot match it, so its snapshots are refused.
        core::snapshot::expect("exact_format",
                               [](const P&) { return kExactFormat; }),
        core::snapshot::via("exact_committed", &P::exact_committed_words,
                            &P::set_exact_committed));
  }

 private:
  /// One placement-index leaf. Ids ascend with the slot and are never
  /// reused; a worker that left keeps its slot as a tombstone (null) until
  /// the next compaction.
  struct Slot {
    std::uint64_t id;
    Worker* worker;
  };

  /// The alive worker `id` and its slot. Throws std::logic_error if `id` is
  /// not alive.
  std::pair<Worker*, std::size_t> locate(std::uint64_t id) const;
  /// Re-derives slot `slot`'s leaf from its worker.
  void refresh(std::size_t slot);
  /// Rebuilds the slots from the alive workers in id order, with room for
  /// as many joins again before the next compaction.
  void compact();
  void after_load();

  static constexpr std::uint64_t kExactFormat = 0x7ff8'6578'6163'7431;
  /// Each alive worker's exact commitment in id order (the snapshot field).
  static std::vector<core::ExactResources::Words> exact_committed_words(
      const WorkerPool& pool);
  static void set_exact_committed(
      WorkerPool& pool, std::vector<core::ExactResources::Words> words);

  core::ResourceVector capacity_;
  core::ExactResources committed_total_;
  core::ExactResources capacity_total_;
  std::map<std::uint64_t, Worker> workers_;
  std::vector<Slot> slots_;
  core::lifecycle::PlacementIndex index_;
  std::uint64_t next_id_ = 0;
};

}  // namespace tora::sim
