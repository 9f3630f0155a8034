#include "src/sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mstk {

double SummaryStats::stddev() const { return std::sqrt(variance()); }

double SummaryStats::SquaredCoefficientOfVariation() const {
  const double mu = mean();
  if (mu == 0.0) {
    return 0.0;
  }
  return variance() / (mu * mu);
}

void SummaryStats::Merge(const SummaryStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double total = static_cast<double>(count_ + other.count_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
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
