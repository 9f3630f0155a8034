// Deterministic pseudo-random number generation for simulations.
//
// A self-contained xoshiro256++ generator plus the distributions the
// workload generators and fault injectors need. We avoid <random> engines in
// the public API so that results are bit-reproducible across standard library
// implementations.
#ifndef MSTK_SRC_SIM_RNG_H_
#define MSTK_SRC_SIM_RNG_H_

#include <cstdint>
#include <vector>

namespace mstk {

// xoshiro256++ by Blackman & Vigna (public domain reference implementation
// re-expressed). Seeded through splitmix64 so any 64-bit seed is usable.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform bits.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  uint64_t state_[4];
};

// Zipf-distributed rank in [0, n) with exponent theta (> 0): an exact
// inverse-CDF table over the n ranks, built once and sampled by binary
// search. The one Zipf sampler; every skewed workload draws through it.
class ZipfTable {
 public:
  ZipfTable(int64_t n, double theta);

  int64_t Sample(Rng& rng) const;
  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_RNG_H_
