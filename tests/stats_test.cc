#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/rng.h"

namespace mstk {
namespace {

TEST(SummaryStatsTest, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryStatsTest, KnownValues) {
  SummaryStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.SquaredCoefficientOfVariation(), 4.0 / 25.0);
}

TEST(SummaryStatsTest, MergeEqualsCombined) {
  Rng rng(5);
  SummaryStats all;
  SummaryStats left;
  SummaryStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 10.0);
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(SummaryStatsTest, MergeWithEmpty) {
  SummaryStats a;
  a.Add(1.0);
  a.Add(3.0);
  SummaryStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(i);
  }
  EXPECT_EQ(s.count(), 100);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Quantile(0.5), 50.5, 1e-9);
}

TEST(SampleSetTest, AddAfterQuantileResorts) {
  SampleSet s;
  s.Add(5.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 5.0);
  s.Add(9.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 9.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
}

}  // namespace
}  // namespace mstk
