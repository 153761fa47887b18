#include "core/snapshot_fields.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tora::core {

SnapshotError::SnapshotError(std::string section, std::string field,
                             std::string reason)
    : std::runtime_error("snapshot " + section +
                         (field.empty() ? "" : "." + field) + ": " + reason),
      section_(std::move(section)),
      field_(std::move(field)),
      reason_(std::move(reason)) {}

namespace snapshot {

void In::fail(const std::string& reason) const {
  throw SnapshotError(section_, field_, reason);
}

util::ByteReader& In::need(std::size_t n, Kind kind, std::uint64_t max) {
  if (r_->remaining() < n) {
    fail("truncated: needs " + std::to_string(n) + " bytes, " +
         std::to_string(r_->remaining()) + " left");
  }
  detail::Probe& probe = detail::probe;
  if (probe.leaves && !probe.body) probe.body = r_;
  if (probe.leaves && probe.body == r_) {
    probe.leaves->push_back({section_, field_, r_->position(), kind, max});
  }
  return *r_;
}

std::size_t In::count(std::size_t min_bytes) {
  const std::uint64_t n = need(8, Kind::Count).u64();
  if (n > r_->remaining() / std::max<std::size_t>(min_bytes, 1)) {
    fail("count " + std::to_string(n) + " exceeds the " +
         std::to_string(r_->remaining()) + " bytes left");
  }
  return static_cast<std::size_t>(n);
}

void check(const In& in, double v, Rule rule) {
  const char* why = rule.has(kFinite) && !std::isfinite(v) ? "finite"
                    : rule.has(kNonNegative) && !(v >= 0.0) ? ">= 0"
                    : rule.has(kUnit) && !(v <= 1.0)        ? "in [0, 1]"
                                                            : nullptr;
  if (why == nullptr) return;
  char shown[32];
  std::snprintf(shown, sizeof shown, "%.17g", v);
  in.fail("value " + std::string(shown) + " must be " + why);
}

std::string mismatch(std::string_view want, std::string_view got) {
  return "must be '" + std::string(want) + "' (got '" + std::string(got) +
         "')";
}

std::string mismatch(std::uint64_t want, std::uint64_t got) {
  return "must be " + std::to_string(want) + " (got " + std::to_string(got) +
         ")";
}

}  // namespace snapshot
}  // namespace tora::core
