#include "core/tenancy/multi_tenant_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace tora::core::tenancy {

// --- TenantAdapter ---------------------------------------------------------

void MultiTenantCore::TenantAdapter::task_fatal(std::uint64_t id) {
  owner_.hooks_.task_fatal(base_ + id);
}
void MultiTenantCore::TenantAdapter::allocation_committed(
    std::uint64_t id, const ResourceVector& alloc, bool is_retry) {
  owner_.hooks_.allocation_committed(base_ + id, alloc, is_retry);
}
void MultiTenantCore::TenantAdapter::task_dispatched(std::uint64_t id,
                                                     std::uint64_t worker,
                                                     std::uint32_t attempt) {
  TenantState& ts = owner_.state_[tenant_];
  const ResourceVector& alloc = ts.core->entry(id).alloc;
  ts.running_alloc += alloc;
  ++ts.running_count;
  owner_.granted_ += alloc;
  owner_.hooks_.task_dispatched(base_ + id, worker, attempt);
}
void MultiTenantCore::TenantAdapter::task_completed(std::uint64_t id,
                                                    const ResourceVector& peak,
                                                    double runtime_s) {
  owner_.hooks_.task_completed(base_ + id, peak, runtime_s);
}
void MultiTenantCore::TenantAdapter::task_failed_attempt(std::uint64_t id,
                                                         double runtime_s,
                                                         unsigned mask,
                                                         bool requeued) {
  owner_.hooks_.task_failed_attempt(base_ + id, runtime_s, mask, requeued);
}
void MultiTenantCore::TenantAdapter::task_requeued(std::uint64_t id) {
  owner_.hooks_.task_requeued(base_ + id);
}
void MultiTenantCore::TenantAdapter::task_evicted(std::uint64_t id,
                                                  double scale) {
  owner_.hooks_.task_evicted(base_ + id, scale);
}

std::optional<std::uint64_t> MultiTenantCore::TenantAdapter::place(
    std::uint64_t id, const ResourceVector& alloc) {
  return owner_.driver_->place(base_ + id, alloc);
}
void MultiTenantCore::TenantAdapter::commit(std::uint64_t id,
                                            std::uint64_t worker,
                                            const ResourceVector& alloc) {
  owner_.driver_->commit(base_ + id, worker, alloc);
}
bool MultiTenantCore::TenantAdapter::defer(std::uint64_t id) {
  return owner_.driver_->defer(base_ + id);
}
bool MultiTenantCore::TenantAdapter::may_place(
    const ResourceVector& floor) const {
  return owner_.driver_->may_place(floor);
}

// --- construction ----------------------------------------------------------

MultiTenantCore::MultiTenantCore(std::vector<TenantInput> tenants,
                                 lifecycle::DispatchConfig base_config,
                                 std::unique_ptr<Arbiter> arbiter,
                                 lifecycle::RuntimeHooks& hooks)
    : tenants_(std::move(tenants)), arbiter_(std::move(arbiter)), hooks_(hooks) {
  if (tenants_.empty()) {
    throw std::invalid_argument("MultiTenantCore: need at least one tenant");
  }
  if (!arbiter_) {
    throw std::invalid_argument("MultiTenantCore: arbiter must not be null");
  }
  for (const TenantInput& t : tenants_) {
    if (t.allocator == nullptr) {
      throw std::invalid_argument(
          "MultiTenantCore: every tenant needs an allocator");
    }
    if (!(t.spec.weight > 0.0)) {
      throw std::invalid_argument("MultiTenantCore: tenant weight must be > 0");
    }
    if (!(t.spec.demand_multiplier >= 1.0)) {
      throw std::invalid_argument(
          "MultiTenantCore: demand_multiplier must be >= 1");
    }
    if (!(t.spec.arrival_offset_s >= 0.0)) {
      throw std::invalid_argument(
          "MultiTenantCore: arrival_offset_s must be >= 0");
    }
    if (t.allocator->config().managed !=
        tenants_.front().allocator->config().managed) {
      throw std::invalid_argument(
          "MultiTenantCore: tenants must manage the same resource dimensions");
    }
  }
  single_passthrough_ = tenants_.size() == 1 && arbiter_->pass_through();

  base_.reserve(tenants_.size());
  cat_base_.reserve(tenants_.size());
  state_.reserve(tenants_.size());
  adapters_.reserve(tenants_.size());
  std::uint64_t id_base = 0;
  std::uint64_t cat_key = 0;
  for (TenantInput& t : tenants_) {
    base_.push_back(id_base);
    cat_base_.push_back(cat_key);
    adapters_.push_back(std::make_unique<TenantAdapter>(
        *this, static_cast<TenantId>(state_.size()), id_base));
    lifecycle::DispatchConfig cfg = base_config;
    cfg.alloc_inflation = base_config.alloc_inflation * t.spec.demand_multiplier;
    state_.push_back({t.allocator,
                      std::make_unique<lifecycle::DispatchCore>(
                          t.tasks, *t.allocator, cfg, *adapters_.back()),
                      ResourceVector{}, 0});
    id_base += t.tasks.size();
    // Fixed from here on: the core's constructor interned every category
    // this tenant's workload uses.
    cat_key += t.allocator->category_count();
  }
  task_count_ = id_base;

  if (tenants_.size() == 1) {
    tasks_ = tenants_.front().tasks;
  } else {
    composed_.reserve(task_count_);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      for (const TaskSpec& spec : tenants_[t].tasks) {
        TaskSpec s = spec;
        s.id += base_[t];
        for (std::uint64_t& d : s.deps) d += base_[t];
        composed_.push_back(std::move(s));
      }
    }
    tasks_ = composed_;
  }
}

// --- id mapping ------------------------------------------------------------

TenantId MultiTenantCore::tenant_of(std::uint64_t global_id) const {
  if (tenants_.size() == 1) return 0;
  const auto it = std::upper_bound(base_.begin(), base_.end(), global_id);
  return static_cast<TenantId>((it - base_.begin()) - 1);
}

lifecycle::DispatchCore& MultiTenantCore::core_for(std::uint64_t global_id,
                                                   TenantId* tenant) {
  const TenantId t = tenant_of(global_id);
  if (tenant) *tenant = t;
  return *state_[t].core;
}

const lifecycle::DispatchCore& MultiTenantCore::core_for(
    std::uint64_t global_id, TenantId* tenant) const {
  const TenantId t = tenant_of(global_id);
  if (tenant) *tenant = t;
  return *state_[t].core;
}

const std::vector<ResourceKind>& MultiTenantCore::managed() const noexcept {
  return tenants_.front().allocator->config().managed;
}

// --- running-attempt stats -------------------------------------------------

void MultiTenantCore::release_running(TenantId t, std::uint64_t global_id) {
  const lifecycle::TaskEntry& e =
      state_[t].core->entry(global_id - base_[t]);
  if (e.phase == lifecycle::TaskPhase::Running) {
    state_[t].running_alloc -= e.alloc;
    --state_[t].running_count;
  }
}

// --- lifecycle surface -----------------------------------------------------

void MultiTenantCore::start() {
  for (TenantState& ts : state_) ts.core->start();
}

void MultiTenantCore::mark_submitted(std::uint64_t global_id) {
  TenantId t;
  core_for(global_id, &t).mark_submitted(global_id - base_[t]);
}

std::size_t MultiTenantCore::dispatch_pass(lifecycle::DispatchDriver& driver) {
  // The legacy path, verbatim: one unlimited FIFO pass straight through the
  // runtime's driver (the adapter, as hooks, keeps the running stats).
  if (single_passthrough_) return state_[0].core->dispatch_pass(driver);
  return arbitrated_pass(driver);
}

std::size_t MultiTenantCore::arbitrated_pass(lifecycle::DispatchDriver& driver) {
  std::vector<TenantView> views(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    views[t].id = static_cast<TenantId>(t);
    views[t].weight = tenants_[t].spec.weight;
    const std::size_t ready = state_[t].core->ready_size();
    // The REPORTED backlog: a misreporting tenant inflates it along with
    // its allocation asks. The measured fields below cannot be lied about.
    views[t].backlog =
        ready == 0 ? 0
                   : std::max(ready, static_cast<std::size_t>(std::llround(
                                         static_cast<double>(ready) *
                                         tenants_[t].spec.demand_multiplier)));
    views[t].running = state_[t].running_count;
    views[t].running_alloc = state_[t].running_alloc;
  }
  arbiter_->begin(views, driver.pool_capacity());

  driver_ = &driver;
  std::size_t total_placed = 0;
  while (const auto next = arbiter_->next()) {
    const TenantId t = *next;
    granted_ = ResourceVector{};
    const std::size_t placed = state_[t].core->dispatch_pass(*adapters_[t], 1);
    total_placed += placed;
    arbiter_->feedback(t, placed, granted_);
  }
  driver_ = nullptr;
  arbiter_->settle();
  return total_placed;
}

void MultiTenantCore::complete(std::uint64_t global_id,
                               const ResourceVector& measured_peak,
                               double runtime_s) {
  TenantId t;
  lifecycle::DispatchCore& core = core_for(global_id, &t);
  release_running(t, global_id);
  core.complete(global_id - base_[t], measured_peak, runtime_s);
}

lifecycle::DispatchCore::RetryVerdict MultiTenantCore::fail_attempt(
    std::uint64_t global_id, double runtime_s, unsigned exceeded_mask) {
  TenantId t;
  lifecycle::DispatchCore& core = core_for(global_id, &t);
  release_running(t, global_id);
  return core.fail_attempt(global_id - base_[t], runtime_s, exceeded_mask);
}

void MultiTenantCore::requeue_front(std::uint64_t global_id) {
  TenantId t;
  lifecycle::DispatchCore& core = core_for(global_id, &t);
  release_running(t, global_id);
  core.requeue_front(global_id - base_[t]);
}

void MultiTenantCore::charge_eviction(std::uint64_t global_id, double scale) {
  TenantId t;
  core_for(global_id, &t).charge_eviction(global_id - base_[t], scale);
}

void MultiTenantCore::charge_speculation(std::uint64_t global_id,
                                         double scale) {
  TenantId t;
  core_for(global_id, &t).charge_speculation(global_id - base_[t], scale);
}

void MultiTenantCore::rebind_running(std::uint64_t global_id,
                                     std::uint64_t worker) {
  TenantId t;
  core_for(global_id, &t).rebind_running(global_id - base_[t], worker);
}

void MultiTenantCore::make_fatal(std::uint64_t global_id) {
  TenantId t;
  lifecycle::DispatchCore& core = core_for(global_id, &t);
  release_running(t, global_id);
  core.make_fatal(global_id - base_[t]);
}

// --- observers -------------------------------------------------------------

const lifecycle::TaskEntry& MultiTenantCore::entry(
    std::uint64_t global_id) const {
  TenantId t;
  const lifecycle::DispatchCore& core = core_for(global_id, &t);
  return core.entry(global_id - base_[t]);
}

std::size_t MultiTenantCore::ready_size() const noexcept {
  std::size_t total = 0;
  for (const TenantState& ts : state_) total += ts.core->ready_size();
  return total;
}

std::size_t MultiTenantCore::completed() const noexcept {
  std::size_t total = 0;
  for (const TenantState& ts : state_) total += ts.core->completed();
  return total;
}

std::size_t MultiTenantCore::fatal() const noexcept {
  std::size_t total = 0;
  for (const TenantState& ts : state_) total += ts.core->fatal();
  return total;
}

std::size_t MultiTenantCore::finished() const noexcept {
  std::size_t total = 0;
  for (const TenantState& ts : state_) total += ts.core->finished();
  return total;
}

const WasteAccounting& MultiTenantCore::accounting() const {
  if (tenants_.size() == 1) return state_[0].core->accounting();
  merged_accounting_ = WasteAccounting{};
  for (const TenantState& ts : state_) {
    merged_accounting_.merge(ts.core->accounting());
  }
  return merged_accounting_;
}

const ResourceVector& MultiTenantCore::evicted_alloc() const {
  if (tenants_.size() == 1) return state_[0].core->evicted_alloc();
  merged_evicted_ = ResourceVector{};
  for (const TenantState& ts : state_) merged_evicted_ += ts.core->evicted_alloc();
  return merged_evicted_;
}

std::size_t MultiTenantCore::evictions() const noexcept {
  std::size_t total = 0;
  for (const TenantState& ts : state_) total += ts.core->evictions();
  return total;
}

CategoryId MultiTenantCore::category_of(std::uint64_t global_id) const {
  TenantId t;
  const lifecycle::DispatchCore& core = core_for(global_id, &t);
  return static_cast<CategoryId>(cat_base_[t] +
                                 core.category_of(global_id - base_[t]));
}

// --- serialization ---------------------------------------------------------

void MultiTenantCore::save_state(util::ByteWriter& w) const {
  snapshot::save(w, *this);
}

void MultiTenantCore::load_state(util::ByteReader& r) {
  snapshot::load(r, *this);
}

}  // namespace tora::core::tenancy
