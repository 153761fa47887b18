#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/resources.hpp"
#include "core/tenancy/tenant.hpp"

namespace tora::util {
class ByteWriter;
class ByteReader;
}  // namespace tora::util

namespace tora::core::tenancy {

/// What one tenant looks like to the arbiter at the start of a dispatch
/// pass. `backlog` is tenant-REPORTED (a misreporting tenant inflates it);
/// `running`/`running_alloc` are measured by the facade and cannot be lied
/// about — which is exactly the asymmetry DRF and Karma exploit to bound a
/// greedy tenant while the FIFO baseline, which trusts the report, cannot.
struct TenantView {
  TenantId id = 0;
  double weight = 1.0;
  std::size_t backlog = 0;  ///< reported ready-queue length
  std::size_t running = 0;  ///< attempts currently in flight (measured)
  ResourceVector running_alloc;  ///< resources committed to them (measured)
};

/// Inter-tenant dispatch-order arbiter, driven by progressive filling: the
/// facade calls begin() once per dispatch pass, then repeatedly asks next()
/// which tenant gets the next single-placement offer, reports the outcome
/// through feedback(), and calls settle() when next() returns nullopt.
/// A tenant whose offer places nothing is ineligible for the rest of the
/// pass (free space only shrinks within a pass, so it cannot start fitting
/// later). Implementations must be deterministic — identical call sequences
/// produce identical decisions, with ties broken toward the lowest tenant
/// id — because arbiter decisions are replayed bit-exactly through crash
/// recovery and the sim⇄proto parity fingerprints.
class Arbiter {
 public:
  virtual ~Arbiter() = default;

  virtual std::string_view name() const noexcept = 0;

  /// True for the default FIFO arbiter: with a single tenant the facade
  /// bypasses progressive filling entirely and runs the legacy unlimited
  /// dispatch pass, which is what keeps N=1 byte-identical to the
  /// pre-tenancy runtimes.
  virtual bool pass_through() const noexcept { return false; }

  /// Starts a dispatch pass. `views` is indexed by TenantId;
  /// `pool_capacity` is the live aggregate capacity of the worker pool
  /// (used for dominant-share math; may be zero when no workers are up).
  virtual void begin(std::span<const TenantView> views,
                     const ResourceVector& pool_capacity) = 0;

  /// The tenant to offer the next single placement to, or nullopt when the
  /// pass is over (every tenant served, saturated, or ineligible).
  virtual std::optional<TenantId> next() = 0;

  /// Outcome of the offer returned by next(): `placed` placements were
  /// committed (0 or 1) consuming `granted` resources.
  virtual void feedback(TenantId t, std::size_t placed,
                        const ResourceVector& granted) = 0;

  /// Ends the pass; long-lived state (Karma credit transfers) settles here.
  virtual void settle() = 0;

  /// Cross-pass state for snapshots. The facade frames these with the
  /// arbiter name, so load() may assume the bytes were written by the same
  /// implementation. It still throws std::runtime_error, naming the field,
  /// on a count beyond the remaining payload or a non-finite credit.
  virtual void save(util::ByteWriter& w) const = 0;
  virtual void load(util::ByteReader& r) = 0;

  // --- reporting/observability (zero for arbiters without the notion) ---

  /// Lifetime placements granted to the tenant.
  virtual std::uint64_t granted_total(TenantId t) const noexcept = 0;
  /// Karma credit balance (0 for non-banking arbiters).
  virtual double credit(TenantId /*t*/) const noexcept { return 0.0; }
};

/// Known arbiter names, in presentation order: "fifo" (pass-through
/// baseline), "maxmin" (weighted max-min fair over in-flight slots), "drf"
/// (weighted dominant-resource fairness over cores/memory), "karma"
/// (credit banking: idle tenants bank, bursty tenants borrow).
const std::vector<std::string>& arbiter_names();

bool is_arbiter_name(std::string_view name);

/// Constructs an arbiter by name; throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<Arbiter> make_arbiter(std::string_view name);

}  // namespace tora::core::tenancy
