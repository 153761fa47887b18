#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>

namespace tora::util {

/// Deterministic, splittable pseudo-random number generator.
///
/// tora experiments must be exactly reproducible under a fixed seed, across
/// platforms and standard-library versions, so we do not use
/// std::mt19937/std::normal_distribution (whose algorithms are
/// implementation-defined for the distribution adaptors). Rng implements
/// xoshiro256** for the raw stream and provides its own portable
/// distribution transforms (see distributions.hpp for higher-level samplers).
///
/// Rng satisfies the UniformRandomBitGenerator concept so it can also be
/// passed to standard algorithms (e.g. std::shuffle).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator via SplitMix64 expansion of `seed`, so nearby seeds
  /// produce uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value (xoshiro256**).
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double normal01() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// Exponential with the given rate lambda > 0 (mean 1/lambda).
  double exponential(double lambda) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// Derives an independent child stream. Successive calls yield distinct
  /// streams; the parent's sequence is advanced by one draw per split.
  Rng split() noexcept;

  /// Derives a child stream bound to a label, so that adding new consumers
  /// does not perturb existing ones (hash-based stream derivation).
  Rng split(std::string_view label) const noexcept;

  /// Complete generator state, exposed for crash-recovery snapshots: the
  /// xoshiro words plus the Box-Muller cache (normal01 produces variates in
  /// pairs; forgetting the cached one would shift every later draw).
  struct State {
    std::array<std::uint64_t, 4> words{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;

    bool operator==(const State&) const = default;
  };

  State state() const noexcept {
    return {state_, cached_normal_, has_cached_normal_};
  }
  void set_state(const State& s) noexcept {
    state_ = s.words;
    cached_normal_ = s.cached_normal;
    has_cached_normal_ = s.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// SplitMix64 step: advances `x` and returns the next output. Exposed for
/// seed-derivation in tests and workload generators.
std::uint64_t splitmix64(std::uint64_t& x) noexcept;

/// FNV-1a's 64-bit offset basis: the state hash64 starts from.
inline constexpr std::uint64_t kHash64Seed = 0xcbf29ce484222325ull;

/// Stable 64-bit FNV-1a hash of a string. It names things: labeled RNG
/// streams, the allocator-config digest, printed state fingerprints. It is
/// not an integrity seal; wire lines, journal frames and snapshots are
/// sealed with util::crc32c. `seed` continues a previous result, so
/// `hash64(b, hash64(a)) == hash64(a + b)`: a string in pieces hashes
/// without being joined first.
std::uint64_t hash64(std::string_view s,
                     std::uint64_t seed = kHash64Seed) noexcept;

}  // namespace tora::util
