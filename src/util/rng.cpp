#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace tora::util {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::string_view s, std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // xoshiro256** must not be seeded with all zeros; SplitMix64 expansion
  // guarantees a well-mixed nonzero state for any seed value.
  std::uint64_t x = seed;
  for (auto& word : state_) word = splitmix64(x);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  // 53-bit mantissa construction: uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t range = hi - lo;  // inclusive width - 1
  if (range == max()) return (*this)();
  // Debiased modulo (Lemire-style rejection kept simple: rejection loop on
  // the zone boundary). The loop terminates with probability 1.
  const std::uint64_t span = range + 1;
  const std::uint64_t zone = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= zone) v = (*this)();
  return lo + v % span;
}

double Rng::normal01() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is bounded away from 0 to keep log() finite.
  double u1 = uniform01();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal01();
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform01();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

Rng Rng::split() noexcept { return Rng((*this)()); }

Rng Rng::split(std::string_view label) const noexcept {
  // Mix the label hash with the current state words (without consuming from
  // the parent stream) so distinct labels give independent children.
  std::uint64_t x = hash64(label) ^ state_[0] ^ rotl(state_[2], 13);
  return Rng(splitmix64(x));
}

}  // namespace tora::util
