#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/metrics.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/resources.hpp"
#include "core/task.hpp"
#include "core/tenancy/arbiter.hpp"
#include "core/tenancy/tenant.hpp"

namespace tora::core::tenancy {

/// N independent DispatchCore + TaskAllocator pairs — one per tenant, each
/// with its own category table, bucketing policy and waste ledger — behind
/// the DispatchCore surface both runtimes already drive, plus an Arbiter
/// that decides the inter-tenant dispatch order. Tasks are addressed by a
/// GLOBAL id: tenant t's local task i is global_base(t) + i, and runtime
/// hooks fire with global ids.
///
/// Dispatch runs by progressive filling: the arbiter repeatedly names a
/// tenant, that tenant's core runs one single-placement dispatch pass, and
/// the outcome feeds back — so every fairness decision happens at placement
/// granularity against live pool occupancy.
///
/// Each tenant's core talks to the runtime through one TenantAdapter: it
/// forwards the core's hooks with global ids and keeps the tenant's
/// running-attempt stats, and in an arbitrated pass it forwards the core's
/// driver requests the same way. With ONE tenant and the pass-through
/// (fifo) arbiter, the tenant core gets the runtime's driver directly and
/// runs one unlimited pass, so the pre-tenancy runtimes' dispatch decisions
/// and parity fingerprints are byte-identical. That equivalence is the
/// refactor's correctness oracle and is pinned by test_tenancy.cpp. The
/// snapshot always carries the versioned tenant frame, at N=1 too.
class MultiTenantCore {
 public:
  /// `tenants` must be non-empty; every tenant needs an allocator whose
  /// managed-dimension list matches tenant 0's. Spans, allocators and
  /// `hooks` must outlive the core. Per-tenant alloc_inflation is
  /// base_config's value scaled by each tenant's demand_multiplier.
  MultiTenantCore(std::vector<TenantInput> tenants,
                  lifecycle::DispatchConfig base_config,
                  std::unique_ptr<Arbiter> arbiter,
                  lifecycle::RuntimeHooks& hooks = lifecycle::no_hooks);

  // --- shape ---------------------------------------------------------------

  std::size_t tenant_count() const noexcept { return tenants_.size(); }
  bool single_passthrough() const noexcept { return single_passthrough_; }
  const TenantSpec& tenant(TenantId t) const { return tenants_[t].spec; }
  TenantId tenant_of(std::uint64_t global_id) const;
  std::uint64_t global_base(TenantId t) const { return base_[t]; }
  std::uint64_t local_id(std::uint64_t global_id) const {
    return global_id - base_[tenant_of(global_id)];
  }
  /// The global task-spec view: tenant 0's span verbatim at N=1, otherwise
  /// a composed copy with ids and dependency lists shifted into the global
  /// id space.
  std::span<const TaskSpec> tasks() const noexcept { return tasks_; }
  /// The managed resource dimensions (validated identical across tenants).
  const std::vector<ResourceKind>& managed() const noexcept;

  // --- DispatchCore surface (global ids) -----------------------------------

  void start();
  void mark_submitted(std::uint64_t global_id);
  /// One arbiter-ordered scheduling sweep. At N=1 + pass-through this is
  /// exactly one legacy unlimited dispatch pass; otherwise progressive
  /// filling, one placement per arbiter offer, with the driver's
  /// pool_capacity read once for the arbiter. Returns placements made.
  std::size_t dispatch_pass(lifecycle::DispatchDriver& driver);
  void complete(std::uint64_t global_id, const ResourceVector& measured_peak,
                double runtime_s);
  lifecycle::DispatchCore::RetryVerdict fail_attempt(std::uint64_t global_id,
                                                     double runtime_s,
                                                     unsigned exceeded_mask);
  void requeue_front(std::uint64_t global_id);
  void charge_eviction(std::uint64_t global_id, double scale);
  void charge_speculation(std::uint64_t global_id, double scale);
  void rebind_running(std::uint64_t global_id, std::uint64_t worker);
  void make_fatal(std::uint64_t global_id);

  const lifecycle::TaskEntry& entry(std::uint64_t global_id) const;
  std::size_t task_count() const noexcept { return task_count_; }
  std::size_t ready_size() const noexcept;
  std::size_t completed() const noexcept;
  std::size_t fatal() const noexcept;
  std::size_t finished() const noexcept;
  bool done() const noexcept { return finished() == task_count_; }

  /// Tenant 0's ledger at N=1; otherwise all tenants' ledgers merged by
  /// category name (rebuilt on every call — reporting-path only).
  const WasteAccounting& accounting() const;
  const ResourceVector& evicted_alloc() const;
  std::size_t evictions() const noexcept;

  /// Global category key: tenant categories occupy disjoint dense ranges
  /// (tenant t's local category c maps to category_base(t) + c), so
  /// cross-tenant consumers like the deadline tracker index one flat space.
  CategoryId category_of(std::uint64_t global_id) const;
  std::uint64_t category_base(TenantId t) const { return cat_base_[t]; }

  /// Snapshot serialization through the field list below: a versioned
  /// frame of every tenant's allocator section, core state and running
  /// stats, then the arbiter's name and cross-pass state.
  void save_state(util::ByteWriter& w) const;
  void load_state(util::ByteReader& r);

  static constexpr auto fields() {
    using M = MultiTenantCore;
    return snapshot::section(
        "MultiTenantCore",
        snapshot::expect("version", [](const M&) { return kStateVersion; }),
        snapshot::expect("tenants",
                         [](const M& m) {
                           return static_cast<std::uint32_t>(m.state_.size());
                         }),
        snapshot::field("tenant", &M::state_, snapshot::kFixedSize),
        snapshot::expect("arbiter",
                         [](const M& m) { return m.arbiter_->name(); }),
        snapshot::field("arbiter_state", &M::arbiter_));
  }

  // --- per-tenant observers ------------------------------------------------

  const lifecycle::DispatchCore& tenant_core(TenantId t) const {
    return *state_[t].core;
  }
  TaskAllocator& tenant_allocator(TenantId t) { return *tenants_[t].allocator; }
  /// Resources committed to the tenant's in-flight attempts. Serialized,
  /// not recomputed: the arbiters score on the accumulated values, so a
  /// resumed run's arbiter decisions stay bit-identical.
  const ResourceVector& running_alloc(TenantId t) const {
    return state_[t].running_alloc;
  }
  std::size_t running_count(TenantId t) const {
    return state_[t].running_count;
  }
  /// The Running tasks of every tenant.
  std::size_t running_total() const noexcept {
    std::size_t n = 0;
    for (const TenantState& s : state_) n += s.running_count;
    return n;
  }
  const Arbiter& arbiter() const noexcept { return *arbiter_; }

 private:
  static constexpr std::uint32_t kStateVersion = 1;

  /// One tenant's mutable state, in snapshot order.
  struct TenantState {
    TaskAllocator* allocator;
    std::unique_ptr<lifecycle::DispatchCore> core;
    ResourceVector running_alloc;  ///< no sign check: releases leave dust
    std::size_t running_count = 0;

    static constexpr auto fields() {
      using T = TenantState;
      using snapshot::field;
      return snapshot::section(
          "Tenant", field("allocator", &T::allocator),
          field("core", &T::core),
          field("running_alloc", &T::running_alloc, snapshot::kFinite),
          field("running_count", &T::running_count));
    }
  };

  /// The one adapter between tenant t's core and the runtime. As the
  /// core's hooks it forwards every hook with local ids translated to
  /// global ones, and on task_dispatched (once per placement, just before
  /// the commit) it adds the placement to the tenant's running stats and
  /// to the current offer's grant. As the core's driver in an arbitrated
  /// pass it forwards place, commit, defer and may_place to the runtime's
  /// driver.
  class TenantAdapter final : public lifecycle::RuntimeHooks,
                              public lifecycle::DispatchDriver {
   public:
    TenantAdapter(MultiTenantCore& owner, TenantId tenant, std::uint64_t base)
        : owner_(owner), tenant_(tenant), base_(base) {}
    void task_fatal(std::uint64_t id) override;
    void allocation_committed(std::uint64_t id, const ResourceVector& alloc,
                              bool is_retry) override;
    void task_dispatched(std::uint64_t id, std::uint64_t worker,
                         std::uint32_t attempt) override;
    void task_completed(std::uint64_t id, const ResourceVector& peak,
                        double runtime_s) override;
    void task_failed_attempt(std::uint64_t id, double runtime_s,
                             unsigned mask, bool requeued) override;
    void task_requeued(std::uint64_t id) override;
    void task_evicted(std::uint64_t id, double scale) override;

    std::optional<std::uint64_t> place(std::uint64_t id,
                                       const ResourceVector& alloc) override;
    void commit(std::uint64_t id, std::uint64_t worker,
                const ResourceVector& alloc) override;
    bool defer(std::uint64_t id) override;
    bool may_place(const ResourceVector& floor) const override;

   private:
    MultiTenantCore& owner_;
    TenantId tenant_;
    std::uint64_t base_;
  };

  lifecycle::DispatchCore& core_for(std::uint64_t global_id,
                                    TenantId* tenant = nullptr);
  const lifecycle::DispatchCore& core_for(std::uint64_t global_id,
                                          TenantId* tenant = nullptr) const;
  void release_running(TenantId t, std::uint64_t global_id);
  std::size_t arbitrated_pass(lifecycle::DispatchDriver& driver);

  std::vector<TenantInput> tenants_;
  std::unique_ptr<Arbiter> arbiter_;
  lifecycle::RuntimeHooks& hooks_;
  bool single_passthrough_ = false;
  std::vector<std::uint64_t> base_;      ///< global id base per tenant
  std::vector<std::uint64_t> cat_base_;  ///< category key base per tenant
  std::size_t task_count_ = 0;
  std::vector<TaskSpec> composed_;  ///< global spec copy (N>1 only)
  std::span<const TaskSpec> tasks_;
  std::vector<std::unique_ptr<TenantAdapter>> adapters_;
  std::vector<TenantState> state_;
  /// The runtime's driver during an arbitrated pass, and the resources the
  /// current arbiter offer placed (transient, never serialized).
  lifecycle::DispatchDriver* driver_ = nullptr;
  ResourceVector granted_;
  mutable WasteAccounting merged_accounting_;  ///< N>1 accounting() cache
  mutable ResourceVector merged_evicted_;      ///< N>1 evicted_alloc() cache
};

}  // namespace tora::core::tenancy
