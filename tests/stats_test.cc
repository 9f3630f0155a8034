#include "src/sim/stats.h"

#include <gtest/gtest.h>

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
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.SquaredCoefficientOfVariation(), 4.0 / 25.0);
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
