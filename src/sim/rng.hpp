#pragma once
/// \file rng.hpp
/// Deterministic random-number plumbing for reproducible simulations.
/// Every run derives all randomness from one user-visible seed; independent
/// streams (per replication, per component) are split with SplitMix64 so
/// adding a consumer never perturbs the draws of another.

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace facs::sim {

/// 64-bit Mersenne Twister. Seeding, twist and tempering are the ones the
/// C++ standard specifies for `mt19937_64` ([rand.eng.mers]), so every
/// output equals the standard engine's for the same seed. The twist is branch
/// free (`-(y & 1) & a` instead of `(y & 1) ? a : 0`), and seed() reseeds
/// in place. Satisfies std::uniform_random_bit_generator, so the std
/// distributions draw from it unchanged.
class Rng {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type default_seed = 5489U;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  Rng() noexcept { seed(default_seed); }
  explicit Rng(result_type value) noexcept { seed(value); }

  /// Restarts the sequence from \p value, as the standard engine does.
  void seed(result_type value = default_seed) noexcept {
    state_[0] = value;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
    next_ = kStateWords;
  }

  result_type operator()() noexcept {
    if (next_ >= kStateWords) twist();
    result_type y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    y ^= y >> 43;
    return y;
  }

 private:
  static constexpr std::size_t kStateWords = 312;  // n
  static constexpr std::size_t kShift = 156;       // m
  static constexpr result_type kMatrix = 0xB5026F5AA96619E9ULL;  // a
  static constexpr result_type kInitMultiplier = 6364136223846793005ULL;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  [[nodiscard]] static constexpr result_type mix(result_type upper,
                                                 result_type lower,
                                                 result_type far) noexcept {
    const result_type y = (upper & kUpper) | (lower & kLower);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrix);
  }

  void twist() noexcept {
    constexpr std::size_t n = kStateWords;
    constexpr std::size_t m = kShift;
    std::size_t k = 0;
    for (; k < n - m; ++k) {
      state_[k] = mix(state_[k], state_[k + 1], state_[k + m]);
    }
    for (; k < n - 1; ++k) {
      state_[k] = mix(state_[k], state_[k + 1], state_[k + m - n]);
    }
    state_[n - 1] = mix(state_[n - 1], state_[0], state_[m - 1]);
    next_ = 0;
  }

  std::array<result_type, kStateWords> state_;
  std::size_t next_ = kStateWords;
};

/// SplitMix64 scramble — the canonical seed expander.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Engine seed of stream \p stream under \p seed; distinct streams are
/// statistically independent for any practical purpose.
[[nodiscard]] constexpr std::uint64_t streamSeed(std::uint64_t seed,
                                                 std::uint64_t stream = 0) {
  return splitmix64(splitmix64(seed) ^ splitmix64(stream * 0xA5A5A5A5ULL + 1));
}

/// Engine for (seed, stream). `rng.seed(streamSeed(seed, stream))` yields
/// the same engine in place.
[[nodiscard]] inline Rng makeRng(std::uint64_t seed,
                                 std::uint64_t stream = 0) {
  return Rng{streamSeed(seed, stream)};
}

/// Exponential variate with the given mean (> 0).
[[nodiscard]] inline double sampleExponential(Rng& rng, double mean) {
  std::exponential_distribution<double> d{1.0 / mean};
  return d(rng);
}

/// Uniform variate over [lo, hi).
[[nodiscard]] inline double sampleUniform(Rng& rng, double lo, double hi) {
  std::uniform_real_distribution<double> d{lo, hi};
  return d(rng);
}

/// Normal variate.
[[nodiscard]] inline double sampleNormal(Rng& rng, double mean, double sigma) {
  std::normal_distribution<double> d{mean, sigma};
  return d(rng);
}

}  // namespace facs::sim
