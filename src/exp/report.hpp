#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace tora::exp {

/// Fixed-width plain-text table used by the figure/table harnesses to print
/// paper-style result matrices to stdout. Columns are right-aligned except
/// the first (row label).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 3);

  void print(std::ostream& out) const;

  std::size_t rows() const noexcept { return rows_.size(); }
  std::size_t columns() const noexcept { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared by harnesses).
std::string fmt(double v, int precision = 3);

/// Formats a value as a percentage with one decimal, e.g. 0.873 -> "87.3%".
std::string fmt_pct(double ratio);

/// Renders the per-resource AWE and waste breakdown (paper Figs. 5-6) that
/// `tora run` and `tora proto` print: one row per managed resource with AWE,
/// consumption, allocation, internal fragmentation and failed allocation.
TextTable waste_table(const core::WasteAccounting& accounting);

/// Renders one counter family (core::ChaosCounters, RecoveryCounters,
/// StorageFaultCounters, StorageHealth, ResilienceCounters,
/// TransportCounters or ReplicationCounters) as a two-column table (counter,
/// count): one row per field-list entry, in list order, zero rows included
/// so runs compare line by line. Names and values match counters_json.
template <typename T>
TextTable counter_table(const T& c);

/// Renders injected storage-fault counters followed by the manager's
/// degradation status as one two-column table.
TextTable storage_table(const core::StorageFaultCounters& f,
                        const core::StorageHealth& h);

/// Renders per-tenant outcomes (weight, completion, makespan, utilization
/// share, welfare, waste, arbiter grants/credit) one row per tenant.
/// Expects finalize_tenant_shares() to have run on the outcomes.
TextTable tenant_table(std::span<const core::TenantOutcome> outcomes);

/// The counter families one run can produce, for the unified
/// `--counters-json` dump. Null sections are omitted from the output, so
/// every deployment shape (sim run, inproc proto, tcp proto, replicated
/// proto) emits exactly the families it actually has.
struct CounterSections {
  const core::ChaosCounters* chaos = nullptr;
  const core::ResilienceCounters* resilience = nullptr;
  const core::RecoveryCounters* recovery = nullptr;
  const core::StorageFaultCounters* storage_faults = nullptr;
  const core::StorageHealth* storage_health = nullptr;
  const core::TransportCounters* transport = nullptr;
  const core::ReplicationCounters* replication = nullptr;
};

/// One JSON object with one flat sub-object per non-null section, every
/// counter field spelled out (zero values included, so runs diff cleanly).
std::string counters_json(const CounterSections& s);

}  // namespace tora::exp
