#include "core/tenancy/arbiter.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/snapshot_fields.hpp"

namespace tora::core::tenancy {

namespace {

/// The dominant-share dimensions (the DRF paper's (cores, memory) pair;
/// disk is opportunistically plentiful on these pools).
constexpr std::array<ResourceKind, 2> kDominantKinds = {
    ResourceKind::Cores, ResourceKind::MemoryMB};

/// Shared per-pass mechanics: view capture, weight normalization,
/// eligibility tracking, grant counters and the base serialization
/// (lifetime grant counters). Subclasses supply score() — next() offers to
/// the eligible tenant with the LOWEST score, ties toward the lowest id.
class ArbiterBase : public Arbiter {
 public:
  void begin(std::span<const TenantView> views,
             const ResourceVector& pool_capacity) override {
    views_.assign(views.begin(), views.end());
    pool_ = pool_capacity;
    const std::size_t n = views_.size();
    double total_weight = 0.0;
    for (const TenantView& v : views_) total_weight += v.weight;
    wnorm_.assign(n, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      wnorm_[t] = total_weight > 0.0
                      ? views_[t].weight / total_weight
                      : 1.0 / static_cast<double>(n == 0 ? 1 : n);
    }
    eligible_.assign(n, 0);
    for (std::size_t t = 0; t < n; ++t) {
      eligible_[t] = views_[t].backlog > 0 ? 1 : 0;
    }
    pass_granted_.assign(n, 0);
    if (total_granted_.size() < n) total_granted_.resize(n, 0);
    on_begin();
  }

  std::optional<TenantId> next() override {
    // The affordability gate (Karma's credit check) binds only under
    // contention: when no eligible tenant can afford a grant the capacity
    // would sit idle, so the gate is waived — arbiters stay
    // work-conserving, and a tenant deep in debt keeps borrowing rather
    // than livelocking the runtime.
    if (auto t = pick(true)) return t;
    return pick(false);
  }

  void feedback(TenantId t, std::size_t placed,
                const ResourceVector& granted) override {
    if (placed == 0) {
      // Free space only shrinks within a pass: a tenant that could not
      // place now cannot place later in the same pass.
      eligible_[t] = 0;
      return;
    }
    pass_granted_[t] += placed;
    total_granted_[t] += placed;
    if (pass_granted_[t] >= views_[t].backlog) eligible_[t] = 0;
    on_grant(t, granted);
  }

  void settle() override {}

  /// Lifetime grant counters, one per tenant.
  static constexpr auto fields() {
    return snapshot::section(
        "Arbiter", snapshot::field("grants", &ArbiterBase::total_granted_));
  }
  void save(util::ByteWriter& w) const override { snapshot::save(w, *this); }
  void load(util::ByteReader& r) override { snapshot::load(r, *this); }

  std::uint64_t granted_total(TenantId t) const noexcept override {
    return t < total_granted_.size() ? total_granted_[t] : 0;
  }

 protected:
  /// Lower is served first. Evaluated fresh on every next() call, so
  /// scores may depend on grants made earlier in the same pass.
  virtual double score(TenantId t) const = 0;
  virtual void on_begin() {}
  virtual void on_grant(TenantId /*t*/, const ResourceVector& /*granted*/) {}
  /// Extra eligibility gate consulted per next() (Karma's credit check).
  virtual bool affordable(TenantId /*t*/) const { return true; }

  std::vector<TenantView> views_;
  ResourceVector pool_;
  std::vector<double> wnorm_;
  std::vector<char> eligible_;
  std::vector<std::uint64_t> pass_granted_;
  std::vector<std::uint64_t> total_granted_;

 private:
  std::optional<TenantId> pick(bool require_affordable) const {
    std::optional<TenantId> best;
    double best_score = 0.0;
    for (std::size_t i = 0; i < views_.size(); ++i) {
      const TenantId t = static_cast<TenantId>(i);
      if (!eligible_[i]) continue;
      if (require_affordable && !affordable(t)) continue;
      const double s = score(t);
      if (!best || s < best_score) {
        best = t;
        best_score = s;
      }
    }
    return best;
  }
};

/// The pre-tenancy behavior as an arbiter: whoever reports the most unserved
/// work goes first, and the report is trusted. Deliberately gameable — the
/// misreporting stress uses it as the unbounded baseline. pass_through()
/// lets the facade skip progressive filling entirely at N=1.
class FifoArbiter final : public ArbiterBase {
 public:
  std::string_view name() const noexcept override { return "fifo"; }
  bool pass_through() const noexcept override { return true; }

 protected:
  double score(TenantId t) const override {
    const std::uint64_t remaining =
        views_[t].backlog > pass_granted_[t]
            ? views_[t].backlog - pass_granted_[t]
            : 0;
    return -static_cast<double>(remaining);
  }
};

/// Weighted max-min fairness over in-flight attempt slots: water-filling on
/// (running + granted this pass) / weight, so the tenant furthest below its
/// weighted slot share is served first. Slot-fair but resource-blind — a
/// tenant with fat allocations gets the same slot count as a thin one.
class MaxMinArbiter final : public ArbiterBase {
 public:
  std::string_view name() const noexcept override { return "maxmin"; }

 protected:
  double score(TenantId t) const override {
    const double slots = static_cast<double>(views_[t].running) +
                         static_cast<double>(pass_granted_[t]);
    return slots / wnorm_[t];
  }
};

/// Weighted dominant-resource fairness: each tenant's usage is its measured
/// committed allocation plus this pass's grants; its dominant share is the
/// max over (cores, memory) of usage / pool capacity; the smallest
/// weight-normalized dominant share is served first.
class DrfArbiter final : public ArbiterBase {
 public:
  std::string_view name() const noexcept override { return "drf"; }

 protected:
  void on_begin() override {
    pass_alloc_.assign(views_.size(), ResourceVector{});
  }

  void on_grant(TenantId t, const ResourceVector& granted) override {
    pass_alloc_[t] += granted;
  }

  double score(TenantId t) const override {
    double dominant = 0.0;
    for (ResourceKind k : kDominantKinds) {
      if (pool_[k] <= 0.0) continue;
      const double used = views_[t].running_alloc[k] + pass_alloc_[t][k];
      dominant = std::max(dominant, used / pool_[k]);
    }
    return dominant / wnorm_[t];
  }

 private:
  std::vector<ResourceVector> pass_alloc_;
};

/// Karma-style credit banking. Within a pass, grants are priced by their
/// dominant fraction of the pool; tenants are served max-min on
/// weight-normalized cost, and a tenant past its weighted fair share of the
/// pass keeps borrowing only while its banked credits cover the excess. At
/// settle(), the transfer is zero-sum: borrowers pay their excess over fair
/// share, donors (including idle tenants, who consumed nothing) bank
/// exactly what the borrowers spent — Σ credits is invariant, which the
/// conservation unit test pins down.
class KarmaArbiter final : public ArbiterBase {
 public:
  std::string_view name() const noexcept override { return "karma"; }

  void settle() override {
    double total = 0.0;
    for (double c : cost_) total += c;
    for (std::size_t t = 0; t < cost_.size(); ++t) {
      credits_[t] -= cost_[t] - wnorm_[t] * total;
    }
  }

  /// The base's grant counters, then one finite credit per tenant.
  static constexpr auto fields() {
    return snapshot::section(
        "KarmaArbiter",
        snapshot::field("grants", &KarmaArbiter::total_granted_),
        snapshot::field("credits", &KarmaArbiter::credits_,
                        snapshot::kFinite));
  }
  void save(util::ByteWriter& w) const override { snapshot::save(w, *this); }
  void load(util::ByteReader& r) override { snapshot::load(r, *this); }

  double credit(TenantId t) const noexcept override {
    return t < credits_.size() ? credits_[t] : 0.0;
  }

 protected:
  void on_begin() override {
    if (credits_.size() < views_.size()) credits_.resize(views_.size(), 0.0);
    cost_.assign(views_.size(), 0.0);
    total_cost_ = 0.0;
  }

  void on_grant(TenantId t, const ResourceVector& granted) override {
    const double c = grant_cost(granted);
    cost_[t] += c;
    total_cost_ += c;
  }

  double score(TenantId t) const override {
    // Max-min on instantaneous usage, like DRF, plus this pass's priced
    // grants — the per-pass cost alone has no memory of who already holds
    // the pool, which let a fat-allocation tenant keep winning passes.
    double dominant = 0.0;
    for (ResourceKind k : kDominantKinds) {
      if (pool_[k] <= 0.0) continue;
      dominant =
          std::max(dominant, views_[t].running_alloc[k] / pool_[k]);
    }
    return (dominant + cost_[t]) / wnorm_[t];
  }

  bool affordable(TenantId t) const override {
    const double over = cost_[t] - wnorm_[t] * total_cost_;
    return over <= credits_[t] + 1e-9;
  }

 private:
  double grant_cost(const ResourceVector& granted) const {
    double dominant = 0.0;
    for (ResourceKind k : kDominantKinds) {
      if (pool_[k] > 0.0) {
        dominant = std::max(dominant, granted[k] / pool_[k]);
      }
    }
    // Slot fallback when the pool view is empty (nothing places then
    // anyway, but the accounting stays sane).
    return dominant > 0.0 ? dominant : 1.0;
  }

  std::vector<double> cost_;   // this pass, per tenant
  double total_cost_ = 0.0;    // this pass
  std::vector<double> credits_;  // persistent bank, serialized
};

}  // namespace

const std::vector<std::string>& arbiter_names() {
  static const std::vector<std::string> names = {"fifo", "maxmin", "drf",
                                                 "karma"};
  return names;
}

std::unique_ptr<Arbiter> make_arbiter(std::string_view name) {
  if (name == "fifo") return std::make_unique<FifoArbiter>();
  if (name == "maxmin") return std::make_unique<MaxMinArbiter>();
  if (name == "drf") return std::make_unique<DrfArbiter>();
  if (name == "karma") return std::make_unique<KarmaArbiter>();
  throw std::invalid_argument("unknown arbiter: " + std::string(name));
}

}  // namespace tora::core::tenancy
