// Deterministic pseudo-random number generation for the whole library.
//
// All randomized algorithms in fastcoreset take an explicit Rng& so that
// experiments are reproducible from a single seed. Rng wraps xoshiro256**,
// seeded via SplitMix64, and adds the sampling helpers the coreset
// constructions need (uniform ints/reals, Gaussians, discrete sampling from
// an unnormalized weight vector).

#ifndef FASTCORESET_COMMON_RNG_H_
#define FASTCORESET_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace fastcoreset {

/// One SplitMix64 step: advances `x` by the golden-ratio increment and
/// returns the mixed value. Also derives independent seeds from one.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Reseed(seed); }

  /// Resets the state as if constructed with `seed`.
  void Reseed(uint64_t seed) {
    // Consecutive SplitMix64 outputs; guarantees a non-degenerate state.
    for (uint64_t i = 0; i < 4; ++i) {
      state_[i] = SplitMix64(seed + i * 0x9e3779b97f4a7c15ull);
    }
  }

  /// Next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextIndex(uint64_t n) {
    FC_CHECK_GT(n, 0u);
    // Lemire's nearly-divisionless bounded sampling.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < n) {
      const uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller (cached pair).
  double NextGaussian();

  /// +1 or -1 with equal probability.
  double NextSign() { return (NextU64() & 1) ? 1.0 : -1.0; }

  /// Samples an index proportional to `weights` (unnormalized, >= 0).
  /// O(n) including a summing pass; use FenwickTree for repeated draws
  /// from an evolving mass.
  size_t SampleDiscrete(const std::vector<double>& weights);

  /// Same draw, but `total` is the caller's precomputed sum of `weights`
  /// (> 0) — skips the O(n) re-sum, leaving one O(n) sweep. Callers that
  /// already reduced the mass (e.g. a ParallelReduce total) must pass
  /// that exact value: the sweep tolerates the usual floating-point
  /// slack by falling back to the last positive-weight index.
  size_t SampleDiscrete(const std::vector<double>& weights, double total);

  /// Samples `count` indices from [0, n) without replacement (Fisher-Yates
  /// on an index array; O(n) memory). Requires count <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t count);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_RNG_H_
