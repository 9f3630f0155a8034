#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mstk {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedRange) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = rng.UniformInt(10);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 10);
    ++counts[static_cast<size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma for binomial(1e5, 0.1)
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(ZipfTableTest, InRangeAndSkewed) {
  const ZipfTable table(100, 1.0);
  Rng rng(23);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    const int64_t r = table.Sample(rng);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 100);
    ++counts[static_cast<size_t>(r)];
  }
  // Rank 0 must be much hotter than rank 50.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(ZipfTableTest, MatchesAnalyticHeadProbability) {
  const int64_t n = 1000;
  const double theta = 0.95;
  ZipfTable table(n, theta);
  EXPECT_EQ(table.size(), n);
  Rng rng(29);
  int head = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (table.Sample(rng) == 0) {
      ++head;
    }
  }
  double norm = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    norm += 1.0 / std::pow(static_cast<double>(k), theta);
  }
  const double expect = 1.0 / norm;
  EXPECT_NEAR(static_cast<double>(head) / trials, expect, 0.01);
}

}  // namespace
}  // namespace mstk
