#include "core/metrics.hpp"

#include <stdexcept>

namespace tora::core {

CategoryId WasteAccounting::intern(std::string_view category) {
  const CategoryId id = table_.intern(category);
  if (id >= counts_.size()) {
    counts_.resize(id + 1, 0);
    by_category_.resize(id + 1);
  }
  return id;
}

void WasteAccounting::add(CategoryId id, const ResourceVector& peak,
                          const ResourceVector& final_alloc,
                          double final_runtime_s,
                          std::span<const AttemptLog> failed_attempts) {
  if (final_runtime_s < 0.0) {
    throw std::invalid_argument("WasteAccounting: negative runtime");
  }
  if (id >= by_category_.size()) {
    throw std::out_of_range("WasteAccounting: unknown category id");
  }
  BreakdownArray& cat = by_category_[id];
  for (ResourceKind k : kManagedResources) {
    if (peak[k] > final_alloc[k]) {
      throw std::invalid_argument(
          "WasteAccounting: successful attempt's allocation below the peak "
          "(the execution model would have killed this task)");
    }
    const double c = peak[k] * final_runtime_s;
    const double frag = (final_alloc[k] - peak[k]) * final_runtime_s;
    double failed = 0.0;
    for (const AttemptLog& a : failed_attempts) {
      if (a.runtime_s < 0.0) {
        throw std::invalid_argument("WasteAccounting: negative attempt runtime");
      }
      failed += a.alloc[k] * a.runtime_s;
    }
    const double alloc = final_alloc[k] * final_runtime_s + failed;
    for (WasteBreakdown* b : {&by_resource_[static_cast<std::size_t>(k)],
                              &cat[static_cast<std::size_t>(k)]}) {
      b->consumption += c;
      b->internal_fragmentation += frag;
      b->failed_allocation += failed;
      b->allocation += alloc;
    }
  }
  ++tasks_;
  attempts_ += 1 + failed_attempts.size();
  ++counts_[id];
}

void WasteAccounting::add(const TaskUsage& usage) {
  add(intern(usage.category), usage.peak, usage.final_alloc,
      usage.final_runtime_s, usage.failed_attempts);
}

void WasteAccounting::add_speculative(CategoryId id,
                                      const ResourceVector& alloc,
                                      double held_s) {
  if (held_s < 0.0) {
    throw std::invalid_argument("WasteAccounting: negative speculation hold");
  }
  if (id >= by_category_.size()) {
    throw std::out_of_range("WasteAccounting: unknown category id");
  }
  BreakdownArray& cat = by_category_[id];
  for (ResourceKind k : kManagedResources) {
    const double cost = alloc[k] * held_s;
    by_resource_[static_cast<std::size_t>(k)].speculative += cost;
    cat[static_cast<std::size_t>(k)].speculative += cost;
  }
  ++speculative_attempts_;
}

const WasteBreakdown& WasteAccounting::breakdown(ResourceKind kind) const {
  return by_resource_[static_cast<std::size_t>(kind)];
}

const WasteBreakdown& WasteAccounting::breakdown(CategoryId id,
                                                 ResourceKind kind) const {
  static const WasteBreakdown kZero{};
  if (id >= by_category_.size()) return kZero;
  return by_category_[id][static_cast<std::size_t>(kind)];
}

const WasteBreakdown& WasteAccounting::breakdown(const std::string& category,
                                                 ResourceKind kind) const {
  static const WasteBreakdown kZero{};
  const auto id = table_.find(category);
  if (!id) return kZero;
  return breakdown(*id, kind);
}

double WasteAccounting::awe(ResourceKind kind) const {
  const auto& b = breakdown(kind);
  return b.allocation > 0.0 ? b.consumption / b.allocation : 0.0;
}

double WasteAccounting::awe(CategoryId id, ResourceKind kind) const {
  const auto& b = breakdown(id, kind);
  return b.allocation > 0.0 ? b.consumption / b.allocation : 0.0;
}

double WasteAccounting::awe(const std::string& category,
                            ResourceKind kind) const {
  const auto& b = breakdown(category, kind);
  return b.allocation > 0.0 ? b.consumption / b.allocation : 0.0;
}

double WasteAccounting::mean_attempts() const noexcept {
  return tasks_ > 0 ? static_cast<double>(attempts_) / static_cast<double>(tasks_)
                    : 0.0;
}

std::size_t WasteAccounting::count_for(CategoryId id) const noexcept {
  return id < counts_.size() ? counts_[id] : 0;
}

std::map<std::string, std::size_t> WasteAccounting::per_category() const {
  std::map<std::string, std::size_t> out;
  for (CategoryId id = 0; id < counts_.size(); ++id) {
    out[table_.name(id)] = counts_[id];
  }
  return out;
}

void WasteAccounting::merge(const WasteAccounting& other) {
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    by_resource_[i].consumption += other.by_resource_[i].consumption;
    by_resource_[i].allocation += other.by_resource_[i].allocation;
    by_resource_[i].internal_fragmentation +=
        other.by_resource_[i].internal_fragmentation;
    by_resource_[i].failed_allocation +=
        other.by_resource_[i].failed_allocation;
    by_resource_[i].speculative += other.by_resource_[i].speculative;
  }
  tasks_ += other.tasks_;
  attempts_ += other.attempts_;
  speculative_attempts_ += other.speculative_attempts_;
  for (CategoryId theirs = 0; theirs < other.counts_.size(); ++theirs) {
    const CategoryId mine = intern(other.table_.name(theirs));
    counts_[mine] += other.counts_[theirs];
    for (std::size_t i = 0; i < kResourceCount; ++i) {
      WasteBreakdown& dst = by_category_[mine][i];
      const WasteBreakdown& src = other.by_category_[theirs][i];
      dst.consumption += src.consumption;
      dst.allocation += src.allocation;
      dst.internal_fragmentation += src.internal_fragmentation;
      dst.failed_allocation += src.failed_allocation;
      dst.speculative += src.speculative;
    }
  }
}

void WasteAccounting::set_categories(const std::vector<std::string>& names) {
  table_ = CategoryTable{};
  counts_.clear();
  by_category_.clear();
  for (const std::string& name : names) {
    if (intern(name) + 1 != counts_.size()) {
      throw SnapshotError("WasteAccounting", "categories",
                          "name '" + name + "' repeats");
    }
  }
}

double jain_index(std::span<const double> values) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (values.empty() || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

void finalize_tenant_shares(std::span<TenantOutcome> outcomes) {
  double total_weight = 0.0;
  double total_cores = 0.0;
  for (const TenantOutcome& o : outcomes) {
    total_weight += o.weight;
    total_cores += o.committed_integral[ResourceKind::Cores];
  }
  for (TenantOutcome& o : outcomes) {
    o.entitlement = total_weight > 0.0 ? o.weight / total_weight : 0.0;
    o.utilization_share =
        total_cores > 0.0
            ? o.committed_integral[ResourceKind::Cores] / total_cores
            : 0.0;
    o.welfare =
        o.entitlement > 0.0 ? o.utilization_share / o.entitlement : 0.0;
  }
}

double tenant_fairness(std::span<const TenantOutcome> outcomes) {
  std::vector<double> welfare;
  welfare.reserve(outcomes.size());
  for (const TenantOutcome& o : outcomes) welfare.push_back(o.welfare);
  return jain_index(welfare);
}

}  // namespace tora::core
