#include "core/exact_resources.hpp"

#include <sstream>
#include <string>

namespace tora::core {

namespace {

__extension__ using Unsigned = unsigned __int128;

std::string describe(std::string_view what, ResourceKind k, double v) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": " << to_string(k) << " = " << v;
  return os.str();
}

}  // namespace

ExactResources::ExactResources(const ResourceVector& v, std::string_view what) {
  for (ResourceKind k : kAllResources) {
    const double x = v[k];
    if (!(x >= 0.0 && x <= kMaxValue)) {
      throw ExactRangeError(describe(what, k, x) +
                            " is outside the exact range [0, 2^40]");
    }
    // x·2^64 is exact and below 2^104; the cast floors what lies below
    // 2^-64.
    v_[static_cast<std::size_t>(k)] = static_cast<Raw>(x * 0x1p64);
  }
}

bool ExactResources::holds(const ResourceVector& v) noexcept {
  for (ResourceKind k : kAllResources) {
    if (!(v[k] >= 0.0 && v[k] <= kMaxValue)) return false;
  }
  return true;
}

ResourceVector ExactResources::value() const noexcept {
  ResourceVector out;
  for (ResourceKind k : kAllResources) {
    out[k] = static_cast<double>(v_[static_cast<std::size_t>(k)]) * 0x1p-64;
  }
  return out;
}

bool ExactResources::non_negative() const noexcept {
  for (const Raw x : v_) {
    if (x < 0) return false;
  }
  return true;
}

ExactResources& ExactResources::operator+=(const ExactResources& o) {
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    if (__builtin_add_overflow(v_[i], o.v_[i], &v_[i])) {
      throw ExactRangeError("ExactResources: sum leaves the 128-bit range");
    }
  }
  return *this;
}

ExactResources& ExactResources::operator-=(const ExactResources& o) {
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    if (__builtin_sub_overflow(v_[i], o.v_[i], &v_[i])) {
      throw ExactRangeError(
          "ExactResources: difference leaves the 128-bit range");
    }
  }
  return *this;
}

ExactResources::Words ExactResources::words() const noexcept {
  Words w{};
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    const auto u = static_cast<Unsigned>(v_[i]);
    w[2 * i] = static_cast<std::uint64_t>(u);
    w[2 * i + 1] = static_cast<std::uint64_t>(u >> 64);
  }
  return w;
}

ExactResources ExactResources::from_words(const Words& words) noexcept {
  ExactResources out;
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    const auto u = (static_cast<Unsigned>(words[2 * i + 1]) << 64) |
                   words[2 * i];
    out.v_[i] = static_cast<Raw>(u);
  }
  return out;
}

void check_pool_capacity(const ResourceVector& capacity, std::size_t workers,
                         std::string_view what) {
  (void)ExactResources(capacity, what);
  for (ResourceKind k : kAllResources) {
    if (capacity[k] * static_cast<double>(workers) > ExactResources::kMaxTotal) {
      throw ExactRangeError(describe(what, k, capacity[k]) + " times " +
                            std::to_string(workers) +
                            " workers passes the exact pool total's range "
                            "(2^62)");
    }
  }
}

}  // namespace tora::core
