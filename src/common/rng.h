// Deterministic pseudo-random number generation for workload synthesis.
//
// Every workload generator in this repository is seeded explicitly so traces
// are bit-reproducible across runs and platforms; std::mt19937 would also
// work but xoshiro256** is smaller, faster, and its output sequence is
// pinned here (libstdc++ distributions are not portable across
// implementations, so we implement our own bounded/real draws too). The
// per-draw calls are defined here so trace generators can inline them.
#pragma once

#include <array>
#include <cstdint>

#include "common/check.h"

namespace sgxpl {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64 so that any 64-bit seed gives a well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept {
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

  /// Uniform value in [0, bound) via Lemire's multiply-shift rejection.
  /// bound must be nonzero.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    SGXPL_DCHECK(bound != 0);
    // Lemire's nearly-divisionless bounded draw.
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double real() noexcept {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return real() < p;
  }

  /// Geometric-ish burst length: 1 + number of successes with prob p.
  /// Used to synthesize run lengths in mixed access patterns.
  std::uint64_t burst(double p, std::uint64_t cap) noexcept;

  /// The full generator state, for checkpoint/restore. A generator whose
  /// state is captured and later restored via set_state() continues with
  /// exactly the sequence the original would have produced.
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    state_ = s;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// A Zipf(alpha) sampler over {0, .., n-1} using the rejection-inversion
/// method of Hörmann & Derflinger — O(1) per sample, no O(n) table, suitable
/// for the multi-gigabyte page ranges modeled by irregular workloads.
///
/// The sampler itself holds only immutable precomputed constants; all
/// sequence state lives in the Rng it draws from. Capturing Rng::state()
/// therefore checkpoints a Zipf-driven trace generator completely: restore
/// the Rng and the remaining draws are bit-identical.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  std::uint64_t operator()(Rng& rng) const noexcept;

  std::uint64_t n() const noexcept { return n_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double h(double x) const noexcept;
  double h_inv(double x) const noexcept;

  std::uint64_t n_;
  double alpha_;
  double h_x1_;
  double h_n_;
  double s_;
};

}  // namespace sgxpl
