#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifecycle/category_table.hpp"
#include "core/resources.hpp"
#include "core/snapshot_fields.hpp"

namespace tora::core {

/// One execution attempt of a task: what was allocated and for how long the
/// attempt ran (failed attempts run until the kill; the successful attempt
/// runs the task's full duration).
struct AttemptLog {
  ResourceVector alloc;
  double runtime_s = 0.0;

  bool operator==(const AttemptLog&) const = default;

  static constexpr auto fields() {
    using snapshot::field, snapshot::kNonNegative;
    return snapshot::section(
        "AttemptLog", field("alloc", &AttemptLog::alloc, kNonNegative),
        field("runtime_s", &AttemptLog::runtime_s, kNonNegative));
  }
};

/// Complete accounting record for one finished task, in the paper's §II-C
/// terms. `failed_attempts` holds every killed execution (the Failed
/// Allocation terms); `final_alloc`/`final_runtime_s` describe the
/// successful attempt; `peak` is the task's true peak consumption.
struct TaskUsage {
  std::string category;
  ResourceVector peak;
  ResourceVector final_alloc;
  double final_runtime_s = 0.0;
  std::vector<AttemptLog> failed_attempts;
};

/// Per-resource waste totals (paper §II-C):
///   internal fragmentation = t · (a − c) of the successful attempt,
///   failed allocation      = Σ aᵢ · tᵢ over killed attempts,
///   consumption C          = c · t,
///   allocation  A          = a · t + Σ aᵢ · tᵢ.
struct WasteBreakdown {
  double consumption = 0.0;
  double allocation = 0.0;
  double internal_fragmentation = 0.0;
  double failed_allocation = 0.0;
  /// Σ aᵢ · tᵢ over losing speculative duplicates (resilience layer). Kept
  /// OUT of `allocation` and total_waste(): a duplicate is the runtime's
  /// hedge against churn, not an allocation decision, so charging it to the
  /// paper's waste metric would blame the allocator for insurance premiums.
  /// Reported as its own column so Fig. 6-style reports stay honest.
  double speculative = 0.0;

  /// allocation − consumption; equals fragmentation + failed by identity.
  /// Excludes `speculative` (see above).
  double total_waste() const noexcept { return allocation - consumption; }

  static constexpr auto fields() {
    using W = WasteBreakdown;
    using snapshot::field, snapshot::kNonNegative;
    return snapshot::section(
        "WasteBreakdown", field("consumption", &W::consumption, kNonNegative),
        field("allocation", &W::allocation, kNonNegative),
        field("internal_fragmentation", &W::internal_fragmentation,
              kNonNegative),
        field("failed_allocation", &W::failed_allocation, kNonNegative),
        field("speculative", &W::speculative, kNonNegative));
  }
};

/// Aggregates task completions into the paper's evaluation metrics:
/// per-resource waste breakdowns (Fig. 6) and Absolute Workflow Efficiency
/// (Fig. 5), the worker-count-independent ratio ΣC / ΣA.
///
/// Categories are interned (intern()); the per-category record path is
/// vector-indexed by CategoryId — the runtimes intern each task's category
/// once at admission and add completions by id, so a million-task run never
/// hashes a category string per completion. The string-keyed overloads are
/// the reporting edge.
class WasteAccounting {
 public:
  /// Interns a category name into this accounting's table. Idempotent.
  CategoryId intern(std::string_view category);

  /// Hot-path record: `id` must come from this accounting's intern().
  void add(CategoryId id, const ResourceVector& peak,
           const ResourceVector& final_alloc, double final_runtime_s,
           std::span<const AttemptLog> failed_attempts);

  /// Reporting-edge record: interns usage.category, then delegates.
  void add(const TaskUsage& usage);

  /// Charges a losing speculative duplicate: `alloc` held for `held_s`
  /// (seconds or ticks, the runtime's clock). Lands in the `speculative`
  /// column only — never in allocation/failed_allocation, so AWE and
  /// total_waste() are unchanged (see WasteBreakdown::speculative).
  void add_speculative(CategoryId id, const ResourceVector& alloc,
                       double held_s);

  /// Losing speculative duplicates charged via add_speculative().
  std::size_t speculative_attempts() const noexcept {
    return speculative_attempts_;
  }

  const WasteBreakdown& breakdown(ResourceKind kind) const;

  /// Per-category breakdown (the paper's §III-B discusses categories
  /// separately; examples/reports surface this). Returns a zero breakdown
  /// for unknown categories/ids.
  const WasteBreakdown& breakdown(CategoryId id, ResourceKind kind) const;
  const WasteBreakdown& breakdown(const std::string& category,
                                  ResourceKind kind) const;

  /// AWE for one resource: ΣC(Tᵢ) / ΣA(Tᵢ). 0 when nothing allocated.
  double awe(ResourceKind kind) const;

  /// Per-category AWE. 0 for unknown categories/ids.
  double awe(CategoryId id, ResourceKind kind) const;
  double awe(const std::string& category, ResourceKind kind) const;

  std::size_t task_count() const noexcept { return tasks_; }
  std::size_t total_attempts() const noexcept { return attempts_; }
  /// Mean number of execution attempts per task (>= 1 once tasks exist).
  double mean_attempts() const noexcept;

  /// Completed-task count for one category (0 for unknown ids).
  std::size_t count_for(CategoryId id) const noexcept;

  /// The interned categories (id -> name; reporting edge).
  const CategoryTable& categories() const noexcept { return table_; }

  /// Per-category task counts keyed by name, built on demand for reports
  /// and diagnostics (the internal storage is id-indexed).
  std::map<std::string, std::size_t> per_category() const;

  /// Merge another accounting (e.g. from parallel shards). Categories are
  /// matched by name, so the two tables need not agree on ids.
  void merge(const WasteAccounting& other);

  /// Binary serialization for the crash-recovery snapshot (the restored
  /// accounting is bit-identical: breakdown doubles travel as their IEEE-754
  /// bit patterns). load() replaces this accounting's entire state.
  void save(util::ByteWriter& w) const { snapshot::save(w, *this); }
  void load(util::ByteReader& r) { snapshot::load(r, *this); }

  static constexpr auto fields() {
    using A = WasteAccounting;
    using snapshot::field, snapshot::kFixedSize;
    return snapshot::section(
        "WasteAccounting", field("by_resource", &A::by_resource_),
        field("tasks", &A::tasks_), field("attempts", &A::attempts_),
        field("speculative_attempts", &A::speculative_attempts_),
        snapshot::via(
            "categories",
            [](const A& a) -> const auto& { return a.table_.names(); },
            [](A& a, std::vector<std::string> names) {
              a.set_categories(names);
            }),
        field("counts", &A::counts_, kFixedSize),
        field("by_category", &A::by_category_, kFixedSize));
  }

 private:
  /// Replaces the category table (and the per-category rows, zeroed) with
  /// `names` in id order; refuses a repeated name.
  void set_categories(const std::vector<std::string>& names);

  using BreakdownArray = std::array<WasteBreakdown, kResourceCount>;

  BreakdownArray by_resource_{};
  std::size_t tasks_ = 0;
  std::size_t attempts_ = 0;
  std::size_t speculative_attempts_ = 0;
  CategoryTable table_;
  std::vector<std::size_t> counts_;             ///< indexed by CategoryId
  std::vector<BreakdownArray> by_category_;     ///< indexed by CategoryId
};

/// One line of a counter family's field list. Each family below lists every
/// member once, in declaration order, in its static `fields()`, and that list
/// alone drives merge_counters, save_counters/load_counters,
/// exp::counter_table and exp::counters_json: adding a counter is one member
/// plus one list line. The two flags are the per-field exceptions.
template <typename T>
struct CounterField {
  const char* name;  ///< the key every table and JSON section prints
  std::size_t T::*member;
  bool merge_max = false;  ///< merges by max instead of by sum
  bool persisted = true;   ///< written to snapshots by save_counters
};

/// True when `T::fields()` names every `std::size_t` member of `T` exactly
/// once, given `state_words` words of other state (StorageHealth's flag).
/// Each family static_asserts it, so a member left out of the list fails to
/// compile.
template <typename T>
constexpr bool lists_every_member(std::size_t state_words = 0) {
  constexpr auto fields = T::fields();
  if (sizeof(T) != (fields.size() + state_words) * sizeof(std::size_t)) {
    return false;
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    for (std::size_t j = i + 1; j < fields.size(); ++j) {
      if (fields[i].member == fields[j].member) return false;
    }
  }
  return true;
}

/// Field-wise sum of `from` into `into` (max for merge_max fields), for
/// aggregating the slices of one run.
template <typename T>
void merge_counters(T& into, const T& from) noexcept {
  for (const CounterField<T>& f : T::fields()) {
    std::size_t& v = into.*f.member;
    v = f.merge_max ? std::max(v, from.*f.member) : v + from.*f.member;
  }
}

/// Snapshot frame of a family: its persisted fields as u64s, in list order
/// (the snapshot walk in core/snapshot_fields.hpp writes every family
/// field of a section this way).
template <typename T>
void save_counters(util::ByteWriter& w, const T& c) {
  snapshot::save(w, c);
}

/// Reads what save_counters wrote; fields that are not persisted keep their
/// value.
template <typename T>
void load_counters(util::ByteReader& r, T& c) {
  snapshot::load(r, c);
}

/// Counters for every anomaly the fault-tolerant protocol runtime injects,
/// detects, or swallows (proto/fault.hpp): channel-level injected faults,
/// manager-level detections and recoveries, and worker-level idempotency
/// hits. Aggregated across channels, manager and agents by
/// proto::ProtocolRuntime and rendered by exp::counter_table. Eviction costs
/// counted here stay OUT of WasteAccounting — the paper's waste metric
/// charges only allocation-induced failures to the algorithm. The manager's
/// snapshot carries all of them; the field list order is that frame's byte
/// layout.
struct ChaosCounters {
  // Channel level (injected by FaultyChannel).
  std::size_t messages_dropped = 0;
  std::size_t messages_duplicated = 0;
  std::size_t messages_corrupted = 0;
  std::size_t messages_severed = 0;  ///< discarded after link severance
  std::size_t links_severed = 0;

  // Manager level (detected/recovered by ProtocolManager).
  std::size_t malformed_lines = 0;  ///< undecodable incoming lines
  std::size_t stale_or_duplicate_results = 0;
  std::size_t attempt_timeouts = 0;  ///< running attempts abandoned by timeout
  std::size_t redispatches = 0;      ///< infrastructure requeues, all causes
  std::size_t workers_declared_dead = 0;  ///< heartbeat silence
  std::size_t workers_quarantined = 0;    ///< repeated-failure bans
  std::size_t protocol_evictions = 0;     ///< attempts lost to dying workers
  std::size_t heartbeats = 0;             ///< received by the manager

  // Worker level (swallowed by WorkerAgent).
  std::size_t duplicate_dispatches = 0;  ///< idempotently re-answered
  std::size_t misaddressed_messages = 0;
  std::size_t worker_crashes = 0;

  // Transport level (socket backend only; always 0 on in-process links).
  /// Placements skipped because the worker's send queue was backpressured —
  /// dispatching into a congested link would only time out on the wire.
  std::size_t dispatches_deferred_backpressure = 0;

  static constexpr auto fields() {
    using C = ChaosCounters;
    return std::to_array<CounterField<C>>({
        {"messages_dropped", &C::messages_dropped},
        {"messages_duplicated", &C::messages_duplicated},
        {"messages_corrupted", &C::messages_corrupted},
        {"messages_severed", &C::messages_severed},
        {"links_severed", &C::links_severed},
        {"malformed_lines", &C::malformed_lines},
        {"stale_or_duplicate_results", &C::stale_or_duplicate_results},
        {"attempt_timeouts", &C::attempt_timeouts},
        {"redispatches", &C::redispatches},
        {"workers_declared_dead", &C::workers_declared_dead},
        {"workers_quarantined", &C::workers_quarantined},
        {"protocol_evictions", &C::protocol_evictions},
        {"heartbeats", &C::heartbeats},
        {"duplicate_dispatches", &C::duplicate_dispatches},
        {"misaddressed_messages", &C::misaddressed_messages},
        {"worker_crashes", &C::worker_crashes},
        {"dispatches_deferred_backpressure",
         &C::dispatches_deferred_backpressure},
    });
  }

  /// Field-wise sum, for aggregating the slices of one run.
  void merge(const ChaosCounters& other) noexcept {
    merge_counters(*this, other);
  }

  bool operator==(const ChaosCounters&) const = default;
};
static_assert(lists_every_member<ChaosCounters>());

/// Counters for the crash-recovery subsystem (core/recovery/): journal and
/// snapshot traffic on the write side, crash injections, and what recovery
/// found and replayed on the read side. Aggregated by the recoverable
/// runtime and rendered by exp::counter_table. These describe the recovery
/// MACHINERY, not the workflow — they are deliberately outside the state
/// that snapshots capture, so they survive across crashes of the thing they
/// measure.
struct RecoveryCounters {
  // Write side (journal + snapshots).
  std::size_t journal_records = 0;  ///< records appended
  std::size_t journal_bytes = 0;    ///< framed bytes appended
  std::size_t journal_syncs = 0;    ///< explicit durability barriers
  std::size_t snapshots_written = 0;

  // Crash injection.
  std::size_t crashes_injected = 0;

  // Read side (recovery).
  std::size_t recoveries = 0;  ///< successful manager reconstructions
  std::size_t torn_records_truncated = 0;   ///< torn journal tails dropped
  std::size_t torn_snapshots_discarded = 0;  ///< invalid snapshots skipped
  std::size_t records_replayed = 0;  ///< journal records re-applied
  std::size_t ticks_replayed = 0;    ///< manager ticks reconstructed
  std::size_t inputs_replayed = 0;   ///< worker messages re-handled

  // Salvage (generation fallback when the newest snapshot is damaged).
  std::size_t generation_fallbacks = 0;  ///< rebuilds seeded by an older gen
  std::size_t journals_chained = 0;   ///< bridge journals replayed in a chain
  std::size_t tmp_files_swept = 0;    ///< orphaned snapshot-*.tmp removed
  std::size_t salvage_refusals = 0;   ///< recoveries refused (typed error)

  static constexpr auto fields() {
    using C = RecoveryCounters;
    return std::to_array<CounterField<C>>({
        {"journal_records", &C::journal_records},
        {"journal_bytes", &C::journal_bytes},
        {"journal_syncs", &C::journal_syncs},
        {"snapshots_written", &C::snapshots_written},
        {"crashes_injected", &C::crashes_injected},
        {"recoveries", &C::recoveries},
        {"torn_records_truncated", &C::torn_records_truncated},
        {"torn_snapshots_discarded", &C::torn_snapshots_discarded},
        {"records_replayed", &C::records_replayed},
        {"ticks_replayed", &C::ticks_replayed},
        {"inputs_replayed", &C::inputs_replayed},
        {"generation_fallbacks", &C::generation_fallbacks},
        {"journals_chained", &C::journals_chained},
        {"tmp_files_swept", &C::tmp_files_swept},
        {"salvage_refusals", &C::salvage_refusals},
    });
  }

  /// Field-wise sum, for aggregating the slices of one run.
  void merge(const RecoveryCounters& other) noexcept {
    merge_counters(*this, other);
  }

  bool operator==(const RecoveryCounters&) const = default;
};
static_assert(lists_every_member<RecoveryCounters>());

/// Counters for injected storage faults (core/recovery/faulty_storage.hpp):
/// how often the seeded fault plan actually fired, per fault class. Live in
/// the decorator, outside any snapshot — the "disk" survives manager
/// crashes. Rendered by exp::storage_table.
struct StorageFaultCounters {
  std::size_t short_writes = 0;   ///< appends that persisted only a prefix
  std::size_t write_errors = 0;   ///< EIO before any byte landed
  std::size_t sync_errors = 0;    ///< fsync failed; tail stayed buffered
  std::size_t fsync_lies = 0;     ///< fsync "succeeded" without persisting
  std::size_t read_errors = 0;    ///< EIO on read_file
  std::size_t objects_rotted = 0;  ///< sealed objects given a latent bit flip
  std::size_t enospc_hits = 0;    ///< writes refused by the fill schedule

  static constexpr auto fields() {
    using C = StorageFaultCounters;
    return std::to_array<CounterField<C>>({
        {"short_writes", &C::short_writes},
        {"write_errors", &C::write_errors},
        {"sync_errors", &C::sync_errors},
        {"fsync_lies", &C::fsync_lies},
        {"read_errors", &C::read_errors},
        {"objects_rotted", &C::objects_rotted},
        {"enospc_hits", &C::enospc_hits},
    });
  }

  /// Field-wise sum, for aggregating the slices of one run.
  void merge(const StorageFaultCounters& other) noexcept {
    merge_counters(*this, other);
  }

  bool operator==(const StorageFaultCounters&) const = default;
};
static_assert(lists_every_member<StorageFaultCounters>());

/// The manager's storage-degradation status (ENOSPC/EIO handling in
/// proto::ProtocolManager): whether the journal is currently read-only and
/// how often the mode engaged/cleared. The three counters are
/// snapshot-carried. `degraded` is a state, not a counter: it is not in the
/// field list or the snapshot, and reports print it first as 0/1.
struct StorageHealth {
  bool degraded = false;  ///< journal closed; new dispatches held
  std::size_t degraded_entries = 0;  ///< times the mode engaged
  std::size_t degraded_exits = 0;    ///< times the disk retry succeeded
  std::size_t retry_failures = 0;    ///< rotate retries that failed again

  static constexpr auto fields() {
    using C = StorageHealth;
    return std::to_array<CounterField<C>>({
        {"degraded_entries", &C::degraded_entries},
        {"degraded_exits", &C::degraded_exits},
        {"retry_failures", &C::retry_failures},
    });
  }

  bool operator==(const StorageHealth&) const = default;
};
static_assert(lists_every_member<StorageHealth>(/*state_words=*/1));

/// Counters for the churn-adaptive resilience layer (core/resilience/):
/// speculative re-dispatch outcomes, adaptive-deadline usage, storm-mode
/// transitions and probation traffic. Part of runtime state (saved with the
/// snapshot, unlike RecoveryCounters) so recovered runs report identical
/// numbers; the field list order is the snapshot frame's byte layout.
/// Rendered by exp::counter_table.
struct ResilienceCounters {
  // Speculation.
  std::size_t speculations_launched = 0;  ///< duplicates dispatched
  std::size_t speculations_promoted = 0;  ///< duplicate won / took over
  std::size_t speculations_cancelled = 0;  ///< primary won or victim lost

  // Deadlines.
  std::size_t adaptive_deadlines_used = 0;  ///< timeouts fired adaptively

  // Storm degradation.
  std::size_t storms_entered = 0;
  std::size_t storms_exited = 0;
  std::size_t dispatches_held = 0;  ///< placements deferred by admission cap

  // Reliability / probation.
  std::size_t probation_admissions = 0;  ///< workers re-admitted after sentence
  std::size_t requarantines = 0;         ///< convictions after the first

  /// Pool-wide legacy bans lifted because they left an unfinished workflow
  /// with no registerable workers. Deliberately not persisted:
  /// like RecoveryCounters it measures the liveness machinery itself, and a
  /// crash of the thing it measures may lose it — replay re-derives it from
  /// the quarantine state where possible.
  std::size_t quarantine_amnesties = 0;

  static constexpr auto fields() {
    using C = ResilienceCounters;
    return std::to_array<CounterField<C>>({
        {"speculations_launched", &C::speculations_launched},
        {"speculations_promoted", &C::speculations_promoted},
        {"speculations_cancelled", &C::speculations_cancelled},
        {"adaptive_deadlines_used", &C::adaptive_deadlines_used},
        {"storms_entered", &C::storms_entered},
        {"storms_exited", &C::storms_exited},
        {"dispatches_held", &C::dispatches_held},
        {"probation_admissions", &C::probation_admissions},
        {"requarantines", &C::requarantines},
        {.name = "quarantine_amnesties",
         .member = &C::quarantine_amnesties,
         .persisted = false},
    });
  }

  /// Field-wise sum, for aggregating the slices of one run.
  void merge(const ResilienceCounters& other) noexcept {
    merge_counters(*this, other);
  }

  bool operator==(const ResilienceCounters&) const = default;
};
static_assert(lists_every_member<ResilienceCounters>());

/// Counters for the real socket transport (proto/net/): connection
/// lifecycle, session handshakes and resumes, wire traffic, backpressure
/// and shedding. Aggregated per endpoint; deliberately OUTSIDE the
/// manager's snapshot state — they describe the network substrate, which
/// survives a manager crash exactly like the in-process links do.
struct TransportCounters {
  // Connection lifecycle.
  std::size_t connections_accepted = 0;
  std::size_t connections_opened = 0;  ///< outbound connects completed
  std::size_t connections_closed = 0;  ///< any cause, both directions
  std::size_t connect_failures = 0;    ///< refused / failed dials
  std::size_t keepalive_closes = 0;    ///< idle beyond the keepalive window
  std::size_t reconnects = 0;          ///< re-dials after an established loss

  // Session layer.
  std::size_t handshakes_ok = 0;
  std::size_t handshakes_rejected = 0;  ///< bad hello: garbage/version/token
  /// Handshakes of another transport version (a v1 peer's 16-digit seal, or
  /// a v= other than ours), refused by either endpoint.
  std::size_t version_mismatches = 0;
  std::size_t sessions_resumed = 0;
  std::size_t frames_replayed = 0;  ///< unacked frames re-sent on resume

  // Wire traffic.
  std::size_t frames_sent = 0;
  std::size_t frames_received = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t partial_writes = 0;    ///< short send() resumed later
  std::size_t oversized_frames = 0;  ///< peer exceeded the frame limit
  std::size_t corrupt_control_frames = 0;  ///< undecodable session frames

  // Backpressure and shedding.
  std::size_t backpressure_events = 0;    ///< queue crossed the high mark
  std::size_t heartbeats_coalesced = 0;   ///< replaced by a newer one
  std::size_t heartbeats_shed = 0;        ///< dropped at the hard cap
  std::size_t send_queue_overflows = 0;   ///< payload pushed past the cap

  static constexpr auto fields() {
    using C = TransportCounters;
    return std::to_array<CounterField<C>>({
        {"connections_accepted", &C::connections_accepted},
        {"connections_opened", &C::connections_opened},
        {"connections_closed", &C::connections_closed},
        {"connect_failures", &C::connect_failures},
        {"keepalive_closes", &C::keepalive_closes},
        {"reconnects", &C::reconnects},
        {"handshakes_ok", &C::handshakes_ok},
        {"handshakes_rejected", &C::handshakes_rejected},
        {"version_mismatches", &C::version_mismatches},
        {"sessions_resumed", &C::sessions_resumed},
        {"frames_replayed", &C::frames_replayed},
        {"frames_sent", &C::frames_sent},
        {"frames_received", &C::frames_received},
        {"bytes_sent", &C::bytes_sent},
        {"bytes_received", &C::bytes_received},
        {"partial_writes", &C::partial_writes},
        {"oversized_frames", &C::oversized_frames},
        {"corrupt_control_frames", &C::corrupt_control_frames},
        {"backpressure_events", &C::backpressure_events},
        {"heartbeats_coalesced", &C::heartbeats_coalesced},
        {"heartbeats_shed", &C::heartbeats_shed},
        {"send_queue_overflows", &C::send_queue_overflows},
    });
  }

  /// Field-wise sum, for aggregating the slices of one run.
  void merge(const TransportCounters& other) noexcept {
    merge_counters(*this, other);
  }

  bool operator==(const TransportCounters&) const = default;
};
static_assert(lists_every_member<TransportCounters>());

/// Counters for the hot-standby replication tier (core/replication/): what
/// the primary shipped, what the standby applied and acknowledged, and the
/// failover events themselves. Like RecoveryCounters these describe the
/// replication MACHINERY and live outside every snapshot — a promoted
/// standby starts its own ledger; the harness merges both sides per run.
struct ReplicationCounters {
  // Primary side (JournalShipper).
  std::size_t records_shipped = 0;    ///< journal records streamed out
  std::size_t bytes_shipped = 0;      ///< encoded replication bytes
  std::size_t barriers_shipped = 0;   ///< durability barriers forwarded
  std::size_t acks_received = 0;      ///< standby durable-offset acks
  std::size_t rotations_shipped = 0;  ///< snapshot rotations streamed
  std::size_t sync_waits = 0;         ///< barriers that had to block
  std::size_t wait_rounds = 0;        ///< service rounds spent blocked
  std::size_t standby_losses = 0;     ///< standby declared lost (wait cap)
  std::size_t fences_received = 0;    ///< fence notices seen by a zombie

  // Standby side (StandbyReplica).
  std::size_t records_applied = 0;    ///< records journaled + replayed warm
  std::size_t barriers_acked = 0;     ///< barriers made durable + acked
  std::size_t rotations_applied = 0;  ///< snapshot rotations mirrored
  std::size_t rotate_mismatches = 0;  ///< shipped body != warm image (bug!)
  std::size_t corrupt_frames = 0;     ///< undecodable replication frames
  std::size_t promotions = 0;         ///< standby promoted to primary
  std::size_t records_behind_at_promotion = 0;  ///< un-acked lag at failover
  std::size_t fences_sent = 0;        ///< fence notices sent to old primary

  // Shared.
  std::size_t max_observed_lag = 0;  ///< max shipped-minus-acked records

  static constexpr auto fields() {
    using C = ReplicationCounters;
    return std::to_array<CounterField<C>>({
        {"records_shipped", &C::records_shipped},
        {"bytes_shipped", &C::bytes_shipped},
        {"barriers_shipped", &C::barriers_shipped},
        {"acks_received", &C::acks_received},
        {"rotations_shipped", &C::rotations_shipped},
        {"sync_waits", &C::sync_waits},
        {"wait_rounds", &C::wait_rounds},
        {"standby_losses", &C::standby_losses},
        {"fences_received", &C::fences_received},
        {"records_applied", &C::records_applied},
        {"barriers_acked", &C::barriers_acked},
        {"rotations_applied", &C::rotations_applied},
        {"rotate_mismatches", &C::rotate_mismatches},
        {"corrupt_frames", &C::corrupt_frames},
        {"promotions", &C::promotions},
        {"records_behind_at_promotion", &C::records_behind_at_promotion},
        {"fences_sent", &C::fences_sent},
        {"max_observed_lag", &C::max_observed_lag, /*merge_max=*/true},
    });
  }

  /// Field-wise sum EXCEPT max_observed_lag, which merges by max.
  void merge(const ReplicationCounters& other) noexcept {
    merge_counters(*this, other);
  }

  bool operator==(const ReplicationCounters&) const = default;
};
static_assert(lists_every_member<ReplicationCounters>());

/// Jain's fairness index over non-negative values: (Σx)² / (n·Σx²).
/// 1.0 = perfectly even, 1/n = maximally concentrated. Returns 1.0 for an
/// empty or all-zero input (nothing to be unfair about).
double jain_index(std::span<const double> values);

/// Per-tenant outcome of a multi-tenant run, reported by the runtimes and
/// rendered by exp::tenant_table. The fairness fields follow the Karma
/// evaluation's definitions: utilization_share is the tenant's fraction of
/// all tenants' committed core-seconds, entitlement its normalized weight,
/// and welfare their ratio — 1.0 means the tenant received exactly its
/// weighted fair share of what was actually consumed.
struct TenantOutcome {
  std::string name;
  double weight = 1.0;
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t fatal = 0;
  double makespan_s = 0.0;
  /// Σ alloc[k]·dt over the tenant's primary in-flight attempts (the
  /// tenant's committed capacity-time; speculative duplicates excluded).
  ResourceVector committed_integral;
  /// The tenant's own waste ledger: AWE on cores and Σ total_waste over
  /// the managed dimensions.
  double awe_cores = 0.0;
  double waste_total = 0.0;
  std::uint64_t granted = 0;  ///< arbiter lifetime placements
  double credit = 0.0;        ///< Karma balance (0 for other arbiters)
  // Filled by finalize_tenant_shares():
  double entitlement = 0.0;
  double utilization_share = 0.0;
  double welfare = 0.0;
};

/// Fills entitlement / utilization_share / welfare across `outcomes` from
/// the weights and committed core-seconds. Welfare is 0 for a tenant that
/// consumed nothing.
void finalize_tenant_shares(std::span<TenantOutcome> outcomes);

/// Jain index over the tenants' welfare values — the cross-tenant fairness
/// headline (1.0 = every tenant got exactly its entitlement).
double tenant_fairness(std::span<const TenantOutcome> outcomes);

}  // namespace tora::core
