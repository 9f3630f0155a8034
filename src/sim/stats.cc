#include "src/sim/stats.h"

#include <algorithm>
#include <cassert>

namespace mstk {

double SummaryStats::SquaredCoefficientOfVariation() const {
  const double mu = mean();
  if (mu == 0.0) {
    return 0.0;
  }
  return variance() / (mu * mu);
}

double SampleSet::Quantile(double q) {
  assert(!samples_.empty());
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace mstk
