#include "src/sim/rng.h"

#include <cmath>
#include <cstdlib>

namespace mstk {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t n) {
  // Rejection to remove modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return static_cast<int64_t>(v % un);
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

ZipfTable::ZipfTable(int64_t n, double theta) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[static_cast<size_t>(i)] = total;
  }
  for (auto& v : cdf_) {
    v /= total;
  }
}

int64_t ZipfTable::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first cdf entry >= u.
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(cdf_.size()) - 1;
  while (lo < hi) {
    const int64_t mid = (lo + hi) / 2;
    if (cdf_[static_cast<size_t>(mid)] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace mstk
