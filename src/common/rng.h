// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the library takes an explicit Rng so that
// tests and benchmarks are bit-reproducible across runs and platforms.
// The generator is splitmix64-seeded xoshiro256**, which is fast, has a
// 2^256-1 period, and passes BigCrush.
#pragma once

#include <cstdint>
#include <limits>

namespace w4k {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator so it can be used with <random>
/// distributions, but the helpers below are preferred as they are
/// platform-stable (libstdc++ distributions are not guaranteed stable).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
};

}  // namespace w4k
