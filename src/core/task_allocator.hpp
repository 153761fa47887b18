#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifecycle/category_table.hpp"
#include "core/policy.hpp"
#include "core/resources.hpp"
#include "core/snapshot_fields.hpp"

namespace tora::core {

/// How an allocator behaves before a category has enough completed records
/// to let its predictive policy take over (paper §IV-D / §V-A).
struct ExplorationConfig {
  enum class Mode {
    /// Bucketing algorithms: allocate a small fixed default (1 core / 1 GB
    /// memory / 1 GB disk) and double the exhausted dimension on failure.
    FixedDefault,
    /// The comparison algorithms: allocate a whole worker, trading an
    /// expensive exploration for guaranteed first-try success (§V-C).
    WholeMachine,
  };

  Mode mode = Mode::FixedDefault;
  /// First-try allocation in FixedDefault mode.
  ResourceVector default_alloc{1.0, 1024.0, 1024.0, 0.0};
  /// Records needed per category before leaving exploration (paper: 10).
  std::size_t min_records = 10;
};

/// Global allocator configuration.
struct AllocatorConfig {
  /// Full worker size; allocations are clamped to it and WholeMachine
  /// exploration hands it out. Paper setup: 16 cores, 64 GB, 64 GB.
  ResourceVector worker_capacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};
  ExplorationConfig exploration;
  /// Which resource dimensions the allocator manages. Defaults to the
  /// paper's three (cores, memory, disk); add ResourceKind::TimeS to also
  /// size wall-time limits (the paper's future-work extension) — then
  /// worker_capacity's and the exploration default's TimeS must be positive.
  std::vector<ResourceKind> managed{kManagedResources.begin(),
                                    kManagedResources.end()};
  /// Keep the completion history (one entry per record_completion). Enables
  /// checkpoint/restore (core/checkpoint.hpp) at ~40 bytes per completed
  /// task; disable for extremely long-running allocators.
  bool record_history = true;
  /// Expected completed-task count, used to pre-reserve the history buffer
  /// (see reserve_history). 0 = grow on demand. Runtimes that know their
  /// workflow size (sim/proto drive this through DispatchCore) set it so a
  /// million-task run does one allocation instead of ~20 doublings.
  std::size_t expected_tasks = 0;
};

/// Creates the per-(category × resource) policy instance. Invoked lazily the
/// first time a category is seen, once per managed resource kind.
using PolicyFactory =
    std::function<ResourcePolicyPtr(ResourceKind kind, const AllocatorConfig&)>;

/// The adaptive resource allocator of paper §IV-D: one ResourcePolicy
/// instance per (task category × resource kind), an exploratory cold-start
/// mode per category, and clamping to worker capacity.
///
/// Protocol (mirrors Fig. 3a):
///  1. allocate(category)            -> first allocation for a ready task;
///  2. on an over-consumption kill:  allocate_retry(...) -> bigger allocation;
///  3. on success: record_completion(category, peak [, significance]).
///
/// Categories are interned to dense CategoryIds (intern()); the id overloads
/// are the hot path — a CategoryId is a vector index, so allocate /
/// allocate_retry / record_completion never hash or compare a string. The
/// string overloads intern (or look up) per call and exist for the edges:
/// tests, examples, checkpoint restore, ad-hoc callers.
///
/// Significance defaults to a per-allocator monotone counter; callers that
/// track submission order (the paper uses the task ID) can pass it
/// explicitly.
class TaskAllocator {
 public:
  TaskAllocator(std::string policy_name, PolicyFactory factory,
                AllocatorConfig config);

  /// Interns a category name, returning its dense id. Idempotent.
  CategoryId intern(std::string_view category);

  /// The interning table (reporting edge: id -> name).
  const CategoryTable& categories() const noexcept { return table_; }

  /// Name of an interned category (throws std::out_of_range on bad ids).
  const std::string& category_name(CategoryId id) const {
    return table_.name(id);
  }

  /// First allocation for a fresh task of `category`. A deterministic
  /// category (see deterministic()) predicts once per version() and
  /// returns the cached result until its next completion.
  ResourceVector allocate(CategoryId category);
  ResourceVector allocate(const std::string& category) {
    return allocate(intern(category));
  }

  /// Next allocation after an execution was killed having exhausted
  /// `failed_alloc` in the dimensions of `exceeded_mask` (bits per
  /// resource_bit(): cores = 1, memory = 2, disk = 4, time = 8). Dimensions
  /// not exceeded keep their previous allocation. The result is clamped to
  /// worker capacity; when every exceeded dimension is already at capacity
  /// the same vector comes back and the caller must declare the task
  /// unrunnable.
  ResourceVector allocate_retry(CategoryId category,
                                const ResourceVector& failed_alloc,
                                unsigned exceeded_mask);
  ResourceVector allocate_retry(const std::string& category,
                                const ResourceVector& failed_alloc,
                                unsigned exceeded_mask) {
    return allocate_retry(intern(category), failed_alloc, exceeded_mask);
  }

  /// Feed back a successful execution's peak consumption. Throws
  /// std::invalid_argument, before any policy observes anything, when the
  /// significance or the peak of any managed dimension is negative, NaN or
  /// infinite.
  void record_completion(CategoryId category, const ResourceVector& peak,
                         std::optional<double> significance = std::nullopt);
  void record_completion(const std::string& category,
                         const ResourceVector& peak,
                         std::optional<double> significance = std::nullopt) {
    record_completion(intern(category), peak, significance);
  }

  /// True while `category` is still in the exploratory mode.
  bool exploring(CategoryId category) const;
  bool exploring(const std::string& category) const;

  /// Completed-record count for a category (0 if never seen).
  std::size_t records_for(CategoryId category) const;
  std::size_t records_for(const std::string& category) const;

  /// Access to the underlying per-resource policy (creates it if needed).
  ResourcePolicy& policy(CategoryId category, ResourceKind kind);
  ResourcePolicy& policy(const std::string& category, ResourceKind kind) {
    return policy(intern(category), kind);
  }

  /// True once the category's policy instances exist (first allocate /
  /// record / policy() touch). Crash-recovery snapshots record the created
  /// SET: policy creation draws from the factory's master Rng stream, so a
  /// restore must re-create exactly as many instances to leave the stream
  /// at the same position — including categories still in exploration,
  /// whose policies exist but have observed nothing.
  bool policies_created(CategoryId category) const {
    return category < categories_.size() &&
           !categories_[category].policies.empty();
  }

  /// The policy WITHOUT creating it (nullptr when absent). Snapshot writers
  /// use this: a const walk over existing instances must not advance the
  /// factory stream.
  const ResourcePolicy* policy_if_created(CategoryId category,
                                          ResourceKind kind) const;

  /// Calls flush_observations() on every existing policy instance, folding
  /// any staged observations into their primary state. Bulk-replay paths
  /// (checkpoint restore, recovery snapshot load) call this once at the end
  /// instead of leaving a full history in each policy's staging buffer.
  /// Consumes no sampler state; creates no policies.
  void flush_policies();

  const AllocatorConfig& config() const noexcept { return config_; }
  const std::string& policy_name() const noexcept { return policy_name_; }

  /// Categories seen so far (via any of the entry points).
  std::size_t category_count() const noexcept { return table_.size(); }

  /// One completed-task observation, as retained for checkpointing. The
  /// category is stored interned; category_name() recovers the string at
  /// the serialization edge.
  struct CompletionRecord {
    CategoryId category = kInvalidCategory;
    ResourceVector peak;
    double significance = 0.0;

    static constexpr auto fields() {
      using R = CompletionRecord;
      using snapshot::field, snapshot::kNonNegative;
      return snapshot::section(
          "CompletionRecord", field("category", &R::category),
          field("peak", &R::peak, kNonNegative),
          field("significance", &R::significance, kNonNegative));
    }
  };

  /// The retained completion history (empty when config().record_history is
  /// false). Order matches the record_completion call order.
  const std::vector<CompletionRecord>& history() const noexcept {
    return history_;
  }

  /// Pre-reserves the history buffer for `expected_tasks` more completions
  /// (no-op when history is disabled). Each retained record costs ~40 bytes
  /// (a 4-byte CategoryId, a 4-double ResourceVector, a double); without the
  /// reservation a large run pays log2(n) vector doublings instead. Called
  /// by lifecycle::DispatchCore with the workload size; harmless to call
  /// more than once.
  void reserve_history(std::size_t expected_tasks);

  /// Monotone counter bumped on every record_completion.
  std::uint64_t revision() const noexcept { return revision_; }

  /// True once the category's policies exist and each returns an empty
  /// sampler_state(): its allocate() then depends only on its own
  /// completions (ResourcePolicy's contract). Classified once, when the
  /// policies are created.
  bool deterministic(CategoryId category) const noexcept {
    return category < categories_.size() &&
           categories_[category].deterministic;
  }

  /// The version a cached first-attempt allocation of `category` is valid
  /// for: the category's completion count when it is deterministic,
  /// revision() otherwise. Schedulers re-request a queued task's
  /// allocation when the version moved, which reproduces Fig. 3a's "ask the
  /// bucketing manager at dispatch" protocol without re-sampling on every
  /// placement attempt. A pure function of the completion stream, so a
  /// replayed allocator reports the same versions.
  std::uint64_t version(CategoryId category) const noexcept {
    return deterministic(category) ? categories_[category].completed
                                   : revision_;
  }

  /// A lower bound, per managed dimension, on what allocate(category) can
  /// return before the next completion, clamped as allocate clamps: the
  /// exploration allocation while the category explores, the cached
  /// allocation of a deterministic category, and each policy's
  /// predict_floor() otherwise. Creates no policy and draws no number.
  ResourceVector allocation_floor(CategoryId category);

 private:
  struct CategoryState {
    /// One policy per managed resource, parallel to config().managed (a
    /// dense array walk, not a map lookup, on every allocate/record).
    std::vector<ResourcePolicyPtr> policies;
    std::size_t completed = 0;
    bool deterministic = false;
    /// A deterministic category's last prediction, valid while `completed`
    /// equals `cached_at` (0 = none: a prediction needs a record).
    std::size_t cached_at = 0;
    ResourceVector cached;
  };

  CategoryState& state_for(CategoryId category);
  ResourceVector clamp(ResourceVector v) const;
  ResourceVector exploration_alloc() const;

  std::string policy_name_;
  PolicyFactory factory_;
  AllocatorConfig config_;
  CategoryTable table_;
  std::vector<CategoryState> categories_;  ///< indexed by CategoryId
  std::vector<CompletionRecord> history_;
  double next_significance_ = 1.0;
  std::uint64_t revision_ = 0;
};

}  // namespace tora::core
