// Deterministic pseudo-random number generation.
//
// Every stochastic choice in the library flows through one of these
// generators so that a (seed, parameters) pair fully determines a run.
// xoshiro256** is used for the bulk stream (fast, 2^256-1 period) and
// SplitMix64 both to seed it and to derive independent child seeds.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace samie {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used for seeding and for
/// deriving decorrelated child seeds from a parent seed plus a salt.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31U);
  }

 private:
  std::uint64_t state_;
};

/// Derives a child seed that is statistically independent of other salts.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t parent,
                                                  std::uint64_t salt) noexcept {
  SplitMix64 mix(parent ^ (salt * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL));
  return mix.next();
}

/// xoshiro256**: the workhorse generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : state_{} {
    SplitMix64 mix(seed);
    for (auto& s : state_) s = mix.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17U;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire-style multiply-shift rejection-free mapping; the tiny modulo
    // bias (< 2^-64 * bound) is irrelevant for simulation workloads.
    const unsigned __int128 m =
        static_cast<unsigned __int128>(operator()()) * bound;
    return static_cast<std::uint64_t>(m >> 64U);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>(operator()() >> 11U) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

  /// For p < 1, the raw draw x makes chance(p) hold exactly when
  /// x < chance_threshold(p): uniform() < p compares (x >> 11) * 2^-53
  /// with p, both scalings are exact, so it holds iff
  /// (x >> 11) < ceil(p * 2^53), i.e. iff x < ceil(p * 2^53) << 11.
  [[nodiscard]] static std::uint64_t chance_threshold(double p) noexcept {
    return p > 0.0 ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))
                         << 11U
                   : 0;
  }

  /// Geometric-ish positive integer with mean approximately `mean` (>= 1).
  /// Used for dependency distances and run lengths.
  std::uint64_t geometric(double mean) noexcept {
    if (mean <= 1.0) return 1;
    return geometric_below(chance_threshold(1.0 / mean));
  }

  /// geometric(mean) for mean > 1, given chance_threshold(1 / mean)
  /// computed once: the same draws, each tested by one integer compare.
  std::uint64_t geometric_below(std::uint64_t threshold) noexcept {
    std::uint64_t n = 1;
    // Cap the tail so a pathological parameter cannot stall generation.
    while (n < 4096 && operator()() >= threshold) ++n;
    return n;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << static_cast<unsigned>(k)) | (x >> static_cast<unsigned>(64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace samie
