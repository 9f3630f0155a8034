// Online statistics used by experiment metrics.
#ifndef MSTK_SRC_SIM_STATS_H_
#define MSTK_SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace mstk {

// Numerically stable running summary (Welford's algorithm).
class SummaryStats {
 public:
  // Inline: the metrics collector calls it for several summaries per
  // recorded request, on the driver's hot path.
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance; the paper's fairness metric uses sigma^2/mu^2 of the
  // full sample, so the population form is the right one.
  double variance() const { return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // sigma^2 / mu^2 — the "squared coefficient of variation" starvation
  // resistance metric from [TP72, WGP94] used in Figs 5(b)/6(b)/7.
  double SquaredCoefficientOfVariation() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact-quantile helper that stores samples. Fine for <= a few million values.
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  int64_t count() const { return static_cast<int64_t>(samples_.size()); }

  // Exact quantile (nearest-rank with interpolation). Sorts lazily.
  double Quantile(double q);

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_STATS_H_
