#include "common/rng.h"

#include <cmath>

namespace sgxpl {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) {
    w = splitmix64(s);
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) noexcept {
  SGXPL_DCHECK(lo <= hi);
  return lo + bounded(hi - lo + 1);
}

std::uint64_t Rng::burst(double p, std::uint64_t cap) noexcept {
  std::uint64_t len = 1;
  while (len < cap && chance(p)) {
    ++len;
  }
  return len;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  SGXPL_CHECK(n >= 1);
  SGXPL_CHECK_MSG(alpha > 0.0 && alpha != 1.0,
                  "alpha=1 needs the harmonic special case; use e.g. 0.99");
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n_) + 0.5);
  s_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -alpha_));
}

double ZipfSampler::h(double x) const noexcept {
  return std::pow(x, 1.0 - alpha_) / (1.0 - alpha_);
}

double ZipfSampler::h_inv(double x) const noexcept {
  return std::pow((1.0 - alpha_) * x, 1.0 / (1.0 - alpha_));
}

std::uint64_t ZipfSampler::operator()(Rng& rng) const noexcept {
  // Hörmann & Derflinger rejection-inversion; returns ranks in [1, n],
  // mapped to [0, n-1].
  for (;;) {
    const double u = h_n_ + rng.real() * (h_x1_ - h_n_);
    const double x = h_inv(u);
    const auto k = static_cast<std::uint64_t>(x + 0.5);
    const double kd = static_cast<double>(k);
    if (kd - x <= s_) {
      return (k == 0 ? 1 : k) - 1;
    }
    if (u >= h(kd + 0.5) - std::pow(kd, -alpha_)) {
      return (k == 0 ? 1 : k) - 1;
    }
  }
}

}  // namespace sgxpl
