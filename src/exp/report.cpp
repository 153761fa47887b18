#include "exp/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace tora::exp {

std::string fmt(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

std::string fmt_pct(double ratio) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(1) << ratio * 100.0 << "%";
  return oss.str();
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row width mismatch");
  }
  rows_.push_back(std::move(row));
}

void TextTable::add_row(const std::string& label,
                        const std::vector<double>& values, int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(fmt(v, precision));
  add_row(std::move(row));
}

void TextTable::print(std::ostream& out) const {
  // The column width is the max over header and EVERY row (long category or
  // tenant names widen the column instead of shearing the rows after them).
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  // setw/left/right below must not leak into the caller's stream: adjustfield
  // is sticky, and a left-over std::left breaks any subsequent right-aligned
  // numeric output the caller does.
  const std::ios_base::fmtflags saved = out.flags();
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c == 0) {
        out << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      } else {
        out << "  " << std::right << std::setw(static_cast<int>(widths[c]))
            << row[c];
      }
    }
    out << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  out.flags(saved);
}

TextTable waste_table(const core::WasteAccounting& accounting) {
  TextTable table({"resource", "AWE", "consumption", "allocation",
                   "fragmentation", "failed"});
  for (core::ResourceKind k : core::kManagedResources) {
    const core::WasteBreakdown& b = accounting.breakdown(k);
    table.add_row({std::string(core::to_string(k)),
                   fmt_pct(accounting.awe(k)), fmt(b.consumption, 0),
                   fmt(b.allocation, 0), fmt(b.internal_fragmentation, 0),
                   fmt(b.failed_allocation, 0)});
  }
  return table;
}

namespace {

using CounterRow = std::pair<const char*, std::size_t>;

// A family's (name, value) rows in field-list order: the one source of every
// counter table and JSON section. StorageHealth's flag is a state, not a
// counter, so it is not in the list; it leads the rows as 0/1.
template <typename T>
std::vector<CounterRow> counter_rows(const T& c) {
  std::vector<CounterRow> rows;
  if constexpr (std::is_same_v<T, core::StorageHealth>) {
    rows.emplace_back("degraded", c.degraded ? 1 : 0);
  }
  for (const core::CounterField<T>& f : T::fields()) {
    rows.emplace_back(f.name, c.*f.member);
  }
  return rows;
}

void add_rows(TextTable& table, const std::vector<CounterRow>& rows) {
  for (const auto& [name, value] : rows) {
    table.add_row({name, std::to_string(value)});
  }
}

}  // namespace

template <typename T>
TextTable counter_table(const T& c) {
  TextTable table({"counter", "count"});
  add_rows(table, counter_rows(c));
  return table;
}

template TextTable counter_table(const core::ChaosCounters&);
template TextTable counter_table(const core::RecoveryCounters&);
template TextTable counter_table(const core::StorageFaultCounters&);
template TextTable counter_table(const core::StorageHealth&);
template TextTable counter_table(const core::ResilienceCounters&);
template TextTable counter_table(const core::TransportCounters&);
template TextTable counter_table(const core::ReplicationCounters&);

TextTable storage_table(const core::StorageFaultCounters& f,
                        const core::StorageHealth& h) {
  TextTable table = counter_table(f);
  add_rows(table, counter_rows(h));
  return table;
}

TextTable tenant_table(std::span<const core::TenantOutcome> outcomes) {
  TextTable table({"tenant", "weight", "done", "fatal", "makespan",
                   "util-share", "entitled", "welfare", "awe", "waste",
                   "granted", "credit"});
  for (const core::TenantOutcome& o : outcomes) {
    table.add_row({o.name, fmt(o.weight, 1),
                   std::to_string(o.completed) + "/" + std::to_string(o.tasks),
                   std::to_string(o.fatal), fmt(o.makespan_s, 1),
                   fmt_pct(o.utilization_share), fmt_pct(o.entitlement),
                   fmt(o.welfare, 3), fmt(o.awe_cores, 3),
                   fmt(o.waste_total, 1), std::to_string(o.granted),
                   fmt(o.credit, 2)});
  }
  return table;
}

std::string counters_json(const CounterSections& s) {
  std::ostringstream out;
  out << "{";
  const char* section_sep = "";
  const auto section = [&](const char* name, const auto* c) {
    if (!c) return;
    out << section_sep << "\n  \"" << name << "\": {";
    section_sep = ",";
    const char* field_sep = "";
    for (const auto& [key, value] : counter_rows(*c)) {
      out << field_sep << "\n    \"" << key << "\": " << value;
      field_sep = ",";
    }
    out << "\n  }";
  };
  section("chaos", s.chaos);
  section("resilience", s.resilience);
  section("recovery", s.recovery);
  section("storage_faults", s.storage_faults);
  section("storage_health", s.storage_health);
  section("transport", s.transport);
  section("replication", s.replication);
  out << "\n}\n";
  return out.str();
}

}  // namespace tora::exp
