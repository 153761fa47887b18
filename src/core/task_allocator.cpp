#include "core/task_allocator.hpp"

#include <stdexcept>
#include <string>

namespace tora::core {

namespace {

/// Construction-time validation: every config error is reported here, next
/// to its cause, instead of surfacing later as a clamp-to-zero allocation or
/// an unrunnable task deep inside a run.
void validate_config(const AllocatorConfig& config) {
  if (config.managed.empty()) {
    throw std::invalid_argument("TaskAllocator: managed set must be non-empty");
  }
  for (ResourceKind k : config.managed) {
    if (!(config.worker_capacity[k] > 0.0)) {
      throw std::invalid_argument(
          std::string("TaskAllocator: worker_capacity must be positive in "
                      "every managed dimension; ") +
          std::string(to_string(k)) +
          " is not (managing ResourceKind::TimeS additionally requires a "
          "positive time capacity)");
    }
    if (config.exploration.mode == ExplorationConfig::Mode::FixedDefault &&
        !(config.exploration.default_alloc[k] > 0.0)) {
      throw std::invalid_argument(
          std::string("TaskAllocator: exploration.default_alloc must be "
                      "positive in every managed dimension; ") +
          std::string(to_string(k)) +
          " is not (managing ResourceKind::TimeS additionally requires a "
          "positive exploration time default)");
    }
  }
  if (config.exploration.min_records == 0) {
    throw std::invalid_argument(
        "TaskAllocator: exploration.min_records must be >= 1 (a policy "
        "cannot predict from zero records)");
  }
}

}  // namespace

TaskAllocator::TaskAllocator(std::string policy_name, PolicyFactory factory,
                             AllocatorConfig config)
    : policy_name_(std::move(policy_name)),
      factory_(std::move(factory)),
      config_(config) {
  if (!factory_) {
    throw std::invalid_argument("TaskAllocator: null policy factory");
  }
  validate_config(config_);
  reserve_history(config_.expected_tasks);
}

CategoryId TaskAllocator::intern(std::string_view category) {
  const CategoryId id = table_.intern(category);
  if (id >= categories_.size()) {
    categories_.resize(id + 1);
  }
  return id;
}

TaskAllocator::CategoryState& TaskAllocator::state_for(CategoryId category) {
  if (category >= categories_.size()) {
    throw std::out_of_range("TaskAllocator: unknown category id");
  }
  CategoryState& st = categories_[category];
  if (st.policies.empty()) {
    st.policies.reserve(config_.managed.size());
    st.deterministic = true;
    for (ResourceKind k : config_.managed) {
      st.policies.push_back(factory_(k, config_));
      st.deterministic =
          st.deterministic && st.policies.back()->sampler_state().empty();
    }
  }
  return st;
}

ResourceVector TaskAllocator::clamp(ResourceVector v) const {
  for (ResourceKind k : config_.managed) {
    if (v[k] > config_.worker_capacity[k]) v[k] = config_.worker_capacity[k];
  }
  return v;
}

ResourceVector TaskAllocator::exploration_alloc() const {
  switch (config_.exploration.mode) {
    case ExplorationConfig::Mode::FixedDefault:
      return clamp(config_.exploration.default_alloc);
    case ExplorationConfig::Mode::WholeMachine:
      return config_.worker_capacity;
  }
  return config_.worker_capacity;
}

bool TaskAllocator::exploring(CategoryId category) const {
  const std::size_t done =
      category < categories_.size() ? categories_[category].completed : 0;
  return done < config_.exploration.min_records;
}

bool TaskAllocator::exploring(const std::string& category) const {
  const auto id = table_.find(category);
  return !id || exploring(*id);
}

std::size_t TaskAllocator::records_for(CategoryId category) const {
  return category < categories_.size() ? categories_[category].completed : 0;
}

std::size_t TaskAllocator::records_for(const std::string& category) const {
  const auto id = table_.find(category);
  return id ? records_for(*id) : 0;
}

const ResourcePolicy* TaskAllocator::policy_if_created(
    CategoryId category, ResourceKind kind) const {
  if (!policies_created(category)) return nullptr;
  const CategoryState& st = categories_[category];
  for (std::size_t i = 0; i < config_.managed.size(); ++i) {
    if (config_.managed[i] == kind) return st.policies[i].get();
  }
  return nullptr;
}

void TaskAllocator::flush_policies() {
  for (CategoryState& st : categories_) {
    for (ResourcePolicyPtr& p : st.policies) {
      if (p) p->flush_observations();
    }
  }
}

ResourcePolicy& TaskAllocator::policy(CategoryId category, ResourceKind kind) {
  auto& st = state_for(category);
  for (std::size_t i = 0; i < config_.managed.size(); ++i) {
    if (config_.managed[i] == kind) return *st.policies[i];
  }
  throw std::logic_error("TaskAllocator: unmanaged resource kind");
}

ResourceVector TaskAllocator::allocate(CategoryId category) {
  auto& st = state_for(category);
  if (st.completed < config_.exploration.min_records) {
    return exploration_alloc();
  }
  if (st.deterministic && st.cached_at == st.completed) return st.cached;
  ResourceVector alloc;
  for (std::size_t i = 0; i < config_.managed.size(); ++i) {
    alloc[config_.managed[i]] = st.policies[i]->predict();
  }
  alloc = clamp(alloc);
  if (st.deterministic) {
    st.cached = alloc;
    st.cached_at = st.completed;
  }
  return alloc;
}

ResourceVector TaskAllocator::allocation_floor(CategoryId category) {
  // An exploring category may have no policies yet; creating them here
  // would draw from the factory's master stream out of turn.
  if (exploring(category)) return exploration_alloc();
  CategoryState& st = categories_[category];
  if (st.deterministic) return allocate(category);
  ResourceVector floor;
  for (std::size_t i = 0; i < config_.managed.size(); ++i) {
    floor[config_.managed[i]] = st.policies[i]->predict_floor();
  }
  return clamp(floor);
}

ResourceVector TaskAllocator::allocate_retry(CategoryId category,
                                             const ResourceVector& failed_alloc,
                                             unsigned exceeded_mask) {
  if (exceeded_mask == 0) {
    throw std::invalid_argument(
        "TaskAllocator::allocate_retry: empty exceeded mask");
  }
  auto& st = state_for(category);
  const bool explore = st.completed < config_.exploration.min_records;
  ResourceVector next = failed_alloc;
  for (std::size_t i = 0; i < config_.managed.size(); ++i) {
    const ResourceKind k = config_.managed[i];
    if (!(exceeded_mask & resource_bit(k))) continue;
    if (explore) {
      // Exploratory failures double the exhausted dimension (§V-A).
      next[k] = failed_alloc[k] > 0.0 ? failed_alloc[k] * 2.0 : 1.0;
    } else {
      next[k] = st.policies[i]->retry(failed_alloc[k]);
    }
  }
  return clamp(next);
}

void TaskAllocator::record_completion(CategoryId category,
                                      const ResourceVector& peak,
                                      std::optional<double> significance) {
  // Check every managed dimension before any policy records the task (or is
  // created for it), so a rejected completion changes nothing.
  const double sig = significance.value_or(next_significance_);
  if (!valid_observation(sig)) {
    throw std::invalid_argument(
        "TaskAllocator::record_completion: significance must be finite and "
        "non-negative");
  }
  for (ResourceKind k : config_.managed) {
    if (!valid_observation(peak[k])) {
      throw std::invalid_argument(
          std::string("TaskAllocator::record_completion: ") +
          std::string(to_string(k)) +
          " peak must be finite and non-negative");
    }
  }
  auto& st = state_for(category);
  if (!significance.has_value()) next_significance_ += 1.0;
  for (std::size_t i = 0; i < config_.managed.size(); ++i) {
    st.policies[i]->observe(peak[config_.managed[i]], sig);
  }
  ++st.completed;
  ++revision_;
  if (config_.record_history) history_.push_back({category, peak, sig});
  if (sig >= next_significance_) next_significance_ = sig + 1.0;
}

void TaskAllocator::reserve_history(std::size_t expected_tasks) {
  if (config_.record_history && expected_tasks > 0) {
    history_.reserve(history_.size() + expected_tasks);
  }
}

}  // namespace tora::core
