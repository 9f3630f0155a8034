#include <gtest/gtest.h>

#include <vector>

#include "src/fault/ecc.h"
#include "src/fault/lifetime.h"
#include "src/fault/remap.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

std::vector<IoExtent> Mapped(const DefectRemapper& remap, int64_t lbn, int32_t blocks) {
  std::vector<IoExtent> extents;
  remap.Map(lbn, blocks, &extents);
  return extents;
}

TEST(EccModelTest, ErasureBudget) {
  const EccModel ecc{EccParams{64, 8, 1.0}};
  EXPECT_EQ(ecc.stripe_width(), 72);
  EXPECT_TRUE(ecc.RecoverableErasures(0));
  EXPECT_TRUE(ecc.RecoverableErasures(8));
  EXPECT_FALSE(ecc.RecoverableErasures(9));
  EXPECT_NEAR(ecc.overhead(), 8.0 / 72.0, 1e-12);
}

TEST(EccModelTest, PerfectDetectionDecodesWithinBudget) {
  const EccModel ecc{EccParams{64, 8, 1.0}};
  Rng rng(1);
  for (int bad = 0; bad <= 8; ++bad) {
    EXPECT_TRUE(ecc.TryDecode(bad, rng)) << bad;
  }
  EXPECT_FALSE(ecc.TryDecode(9, rng));
}

TEST(EccModelTest, DecodeProbabilityMatchesMonteCarlo) {
  const EccModel ecc{EccParams{64, 4, 0.9}};
  Rng rng(2);
  for (int bad = 0; bad <= 5; ++bad) {
    int ok = 0;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
      ok += ecc.TryDecode(bad, rng);
    }
    EXPECT_NEAR(static_cast<double>(ok) / trials, ecc.DecodeProbability(bad), 0.01)
        << "bad=" << bad;
  }
}

TEST(EccModelTest, ZeroEccOnlySurvivesCleanStripes) {
  const EccModel ecc{EccParams{64, 0, 1.0}};
  Rng rng(3);
  EXPECT_TRUE(ecc.TryDecode(0, rng));
  EXPECT_FALSE(ecc.TryDecode(1, rng));
}

TEST(LifetimeTest, NoRedundancyLosesDataQuickly) {
  LifetimeParams p;
  p.ecc_tips = 0;
  p.spare_tips = 0;
  p.tip_mtbf_years = 50.0;  // 6400 tips -> ~128 failures/year
  p.trials = 300;
  Rng rng(4);
  const LifetimeResult r = RunLifetimeStudy(p, rng);
  EXPECT_GT(r.data_loss_probability, 0.99);
  EXPECT_LT(r.mean_years_to_loss, 0.2);
}

TEST(LifetimeTest, StripingPlusSparesSurvives) {
  LifetimeParams p;  // defaults: 8 ecc tips, 512 spares, 100-year tip MTBF
  p.trials = 300;
  Rng rng(5);
  const LifetimeResult r = RunLifetimeStudy(p, rng);
  EXPECT_LT(r.data_loss_probability, 0.05);
  // ~64 failures/year over 5 years, all absorbed by spares.
  EXPECT_GT(r.mean_spares_consumed, 250.0);
}

TEST(LifetimeTest, MoreSparesNeverHurt) {
  LifetimeParams p;
  p.ecc_tips = 2;
  p.trials = 400;
  p.tip_mtbf_years = 10.0;  // stress
  double prev = 1.1;
  for (const int spares : {0, 64, 512}) {
    p.spare_tips = spares;
    Rng rng(6);
    const LifetimeResult r = RunLifetimeStudy(p, rng);
    EXPECT_LE(r.data_loss_probability, prev + 0.05) << spares;
    prev = r.data_loss_probability;
  }
}

TEST(LifetimeTest, AdaptiveSparingSurvivesWithTinyInitialPool) {
  // Start with almost no spares at a failure rate that exhausts a static
  // pool; converting capacity on demand keeps the device alive.
  LifetimeParams p;
  p.ecc_tips = 4;
  p.spare_tips = 8;
  p.tip_mtbf_years = 25.0;  // ~256 failures/year
  p.trials = 300;
  Rng rng_static(7);
  const LifetimeResult statically = RunLifetimeStudy(p, rng_static);
  p.adaptive_sparing = true;
  Rng rng_adaptive(7);
  const LifetimeResult adaptively = RunLifetimeStudy(p, rng_adaptive);
  EXPECT_GT(statically.data_loss_probability, 0.9);
  EXPECT_LT(adaptively.data_loss_probability, 0.05);
  // The survival is paid for in capacity.
  EXPECT_GT(adaptively.mean_tips_converted, 1000.0);
}

TEST(LifetimeTest, AdaptiveSparingUnusedWhenPoolSuffices) {
  LifetimeParams p;  // defaults: generous pool, gentle failure rate
  p.adaptive_sparing = true;
  p.trials = 200;
  Rng rng(9);
  const LifetimeResult r = RunLifetimeStudy(p, rng);
  EXPECT_EQ(r.mean_tips_converted, 0.0);
}

TEST(RemapTest, MemsSpareTipIsTimingTransparent) {
  DefectRemapper remap(10000, RemapStyle::kMemsSpareTip, 9000);
  remap.MarkDefective(105);
  const auto extents = Mapped(remap, 100, 16);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (IoExtent{100, 16}));
}

TEST(RemapTest, DiskSlipShiftsPastDefects) {
  DefectRemapper remap(10000, RemapStyle::kDiskSlip, 9000);
  remap.MarkDefective(5);
  remap.MarkDefective(7);
  // Logical 0..3 unaffected.
  auto extents = Mapped(remap, 0, 4);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (IoExtent{0, 4}));
  // Logical 4..9 slips around physical 5 and 7.
  extents = Mapped(remap, 4, 6);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0], (IoExtent{4, 1}));
  EXPECT_EQ(extents[1], (IoExtent{6, 1}));
  EXPECT_EQ(extents[2], (IoExtent{8, 4}));
}

TEST(RemapTest, DiskSlipBeforeStartOffsetsMapping) {
  DefectRemapper remap(10000, RemapStyle::kDiskSlip, 9000);
  remap.MarkDefective(2);
  const auto extents = Mapped(remap, 10, 4);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (IoExtent{11, 4}));
}

TEST(RemapTest, SpareRegionRedirectsDefectiveBlock) {
  DefectRemapper remap(10000, RemapStyle::kDiskSpareRegion, 9000);
  remap.MarkDefective(102);
  remap.MarkDefective(104);
  const auto extents = Mapped(remap, 100, 8);
  ASSERT_EQ(extents.size(), 5u);
  EXPECT_EQ(extents[0], (IoExtent{100, 2}));
  EXPECT_EQ(extents[1], (IoExtent{9000, 1}));  // defect rank 0
  EXPECT_EQ(extents[2], (IoExtent{103, 1}));
  EXPECT_EQ(extents[3], (IoExtent{9001, 1}));  // defect rank 1
  EXPECT_EQ(extents[4], (IoExtent{105, 3}));
}

TEST(RemapTest, MapAppendsAfterWhatTheBufferHolds) {
  DefectRemapper remap(10000, RemapStyle::kDiskSpareRegion, 9000);
  remap.MarkDefective(102);
  std::vector<IoExtent> extents = {IoExtent{7, 1}};
  remap.Map(100, 4, &extents);
  ASSERT_EQ(extents.size(), 4u);
  EXPECT_EQ(extents[0], (IoExtent{7, 1}));
  EXPECT_EQ(extents[1], (IoExtent{100, 2}));
  EXPECT_EQ(extents[2], (IoExtent{9000, 1}));
  EXPECT_EQ(extents[3], (IoExtent{103, 1}));
}

TEST(RemapTest, ApplySplitsRequests) {
  DefectRemapper remap(10000, RemapStyle::kDiskSpareRegion, 9000);
  remap.MarkDefective(50);
  std::vector<Request> reqs(1);
  reqs[0].lbn = 48;
  reqs[0].block_count = 5;
  reqs[0].arrival_ms = 1.5;
  const auto mapped = remap.Apply(reqs);
  ASSERT_EQ(mapped.size(), 3u);
  EXPECT_EQ(mapped[0].block_count, 2);
  EXPECT_EQ(mapped[1].lbn, 9000);
  EXPECT_DOUBLE_EQ(mapped[2].arrival_ms, 1.5);
}

TEST(RemapTest, MarkDefectiveIdempotent) {
  DefectRemapper remap(100, RemapStyle::kDiskSlip, 90);
  EXPECT_TRUE(remap.MarkDefective(10));
  EXPECT_FALSE(remap.MarkDefective(10));
  EXPECT_EQ(remap.defect_count(), 1);
}

}  // namespace
}  // namespace mstk
