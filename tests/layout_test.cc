#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/layout/layout_map.h"
#include "src/layout/layout_policy.h"
#include "src/mems/geometry.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

constexpr int64_t kSmall = 32768;    // 16 MB small pool
constexpr int64_t kLarge = 2457600;  // 1.2 GB large pool

TEST(ExtentLayoutTest, SingleExtentIdentity) {
  ExtentLayout layout("id");
  layout.Append(0, 1000);
  EXPECT_EQ(layout.logical_capacity(), 1000);
  EXPECT_EQ(layout.MapBlock(0), 0);
  EXPECT_EQ(layout.MapBlock(999), 999);
  const auto extents = layout.MapExtent(10, 100);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (PhysExtent{10, 100}));
}

TEST(ExtentLayoutTest, StraddlingExtentSplits) {
  ExtentLayout layout("split");
  layout.Append(1000, 50);
  layout.Append(5000, 50);
  const auto extents = layout.MapExtent(40, 20);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0], (PhysExtent{1040, 10}));
  EXPECT_EQ(extents[1], (PhysExtent{5000, 10}));
}

TEST(ExtentLayoutTest, AdjacentExtentsCoalesce) {
  ExtentLayout layout("coalesce");
  layout.Append(100, 10);
  layout.Append(110, 10);
  EXPECT_EQ(layout.extent_count(), 1);
  const auto extents = layout.MapExtent(0, 20);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (PhysExtent{100, 20}));
}

TEST(ApplyLayoutTest, SplitsRequestsAtDiscontinuities) {
  ExtentLayout layout("split");
  layout.Append(0, 16);
  layout.Append(1000, 16);
  std::vector<Request> reqs(1);
  reqs[0].lbn = 8;
  reqs[0].block_count = 16;
  reqs[0].arrival_ms = 3.0;
  const auto mapped = ApplyLayout(layout, reqs);
  ASSERT_EQ(mapped.size(), 2u);
  EXPECT_EQ(mapped[0].lbn, 8);
  EXPECT_EQ(mapped[0].block_count, 8);
  EXPECT_EQ(mapped[1].lbn, 1000);
  EXPECT_EQ(mapped[1].block_count, 8);
  EXPECT_DOUBLE_EQ(mapped[1].arrival_ms, 3.0);
}

// A layout must be injective: no two logical blocks share a physical block.
void CheckInjective(const LayoutMap& layout, int64_t device_capacity) {
  std::set<int64_t> used;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const int64_t logical = rng.UniformInt(layout.logical_capacity());
    const int64_t phys = layout.MapBlock(logical);
    EXPECT_GE(phys, 0);
    EXPECT_LT(phys, device_capacity);
  }
  // Exhaustive over a stride for duplicates.
  for (int64_t logical = 0; logical < layout.logical_capacity(); logical += 97) {
    const int64_t phys = layout.MapBlock(logical);
    EXPECT_TRUE(used.insert(phys).second) << "duplicate at logical " << logical;
  }
}

// Builds registry policy `name` for a hot and a cold pool on `geom`.
ExtentLayout BuildPolicy(const char* name, const MemsGeometry& geom, int64_t hot,
                         int64_t cold) {
  LayoutSpec spec;
  spec.geometry = &geom;
  spec.hot_blocks = hot;
  spec.cold_blocks = cold;
  return FindLayoutPolicy(name)->Build(spec);
}

TEST(PlacementsTest, SimpleLayoutIsIdentity) {
  const MemsGeometry geom{MemsParams{}};
  const ExtentLayout layout = BuildPolicy("simple", geom, kSmall, kLarge);
  EXPECT_EQ(layout.logical_capacity(), kSmall + kLarge);
  EXPECT_EQ(layout.MapBlock(12345), 12345);
}

TEST(PlacementsTest, OrganPipeCentersHotPool) {
  const MemsGeometry geom{MemsParams{}};
  const int64_t cap = geom.capacity_blocks();
  const ExtentLayout layout = BuildPolicy("organ-pipe", geom, kSmall, kLarge);
  EXPECT_EQ(layout.logical_capacity(), kSmall + kLarge);
  // Hot pool dead-center.
  const int64_t hot_mid = layout.MapBlock(kSmall / 2);
  EXPECT_NEAR(static_cast<double>(hot_mid), static_cast<double>(cap / 2),
              static_cast<double>(kSmall));
  // Cold pool surrounds it.
  const int64_t cold_a = layout.MapBlock(kSmall + 100);
  EXPECT_GT(cold_a, cap / 2);
  const int64_t cold_b = layout.MapBlock(kSmall + kLarge - 100);
  EXPECT_LT(cold_b, cap / 2);
  CheckInjective(layout, cap);
}

TEST(PlacementsTest, ColumnarSmallPoolInCenterColumn) {
  const MemsGeometry geom{MemsParams{}};
  const ExtentLayout layout = BuildPolicy("columnar", geom, kSmall, kLarge);
  const MemsParams& p = geom.params();
  const int64_t col_blocks = p.cylinders() / 25 * p.blocks_per_cylinder();
  // Small pool cylinders in the center column (12 of 25).
  for (int64_t logical = 0; logical < kSmall; logical += 1111) {
    const int32_t cyl = geom.Decode(layout.MapBlock(logical)).cylinder;
    EXPECT_GE(cyl, 1200);
    EXPECT_LT(cyl, 1300);
  }
  // Large pool stays out of columns 10-14.
  for (int64_t logical = kSmall; logical < kSmall + kLarge; logical += 7777) {
    const int32_t cyl = geom.Decode(layout.MapBlock(logical)).cylinder;
    EXPECT_TRUE(cyl < 1000 || cyl >= 1500) << "cylinder " << cyl;
  }
  (void)col_blocks;
  CheckInjective(layout, geom.capacity_blocks());
}

TEST(PlacementsTest, SubregionedSmallPoolInCenterCell) {
  const MemsGeometry geom{MemsParams{}};
  const int64_t small = 200000;  // fits the 250k-block center cell
  const ExtentLayout layout = BuildPolicy("subregioned", geom, small, kLarge);
  for (int64_t logical = 0; logical < small; logical += 997) {
    const MemsAddress addr = geom.Decode(layout.MapBlock(logical));
    EXPECT_GE(addr.cylinder, 1000);
    EXPECT_LT(addr.cylinder, 1500);
    EXPECT_GE(addr.row, 11);
    EXPECT_LT(addr.row, 16);
  }
  // Large pool in the outer X bands.
  for (int64_t logical = small; logical < small + kLarge; logical += 7777) {
    const MemsAddress addr = geom.Decode(layout.MapBlock(logical));
    EXPECT_TRUE(addr.cylinder < 1000 || addr.cylinder >= 1500)
        << "cylinder " << addr.cylinder;
  }
  CheckInjective(layout, geom.capacity_blocks());
}

TEST(LayoutPolicyTest, RegistryResolvesAllPoliciesByName) {
  const auto& all = AllLayoutPolicies();
  ASSERT_EQ(all.size(), 7u);
  // Registration order is fixed: legacy four, then the KAIST strategies.
  const char* kExpected[] = {"simple",     "organ-pipe", "columnar", "subregioned",
                             "region-seq", "tiled",      "hot-cold"};
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->name(), kExpected[i]);
    EXPECT_EQ(FindLayoutPolicy(kExpected[i]), all[i]);
  }
  EXPECT_EQ(FindLayoutPolicy("no-such-policy"), nullptr);
  const std::string names = LayoutPolicyNames();
  for (const char* name : kExpected) {
    EXPECT_NE(names.find(name), std::string::npos) << name;
  }
}

TEST(LayoutPolicyTest, DeviceAgnosticPoliciesBuildWithoutGeometry) {
  LayoutSpec spec;
  spec.device_capacity_blocks = 1 << 22;
  spec.hot_blocks = kSmall;
  spec.cold_blocks = kLarge;
  for (const char* name : {"simple", "organ-pipe"}) {
    const LayoutPolicy* policy = FindLayoutPolicy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->needs_mems_geometry());
    const ExtentLayout layout = policy->Build(spec);
    EXPECT_EQ(layout.logical_capacity(), kSmall + kLarge);
    CheckInjective(layout, spec.device_capacity_blocks);
  }
  for (const char* name : {"columnar", "subregioned", "region-seq", "tiled",
                           "hot-cold"}) {
    EXPECT_TRUE(FindLayoutPolicy(name)->needs_mems_geometry()) << name;
  }
}

TEST(PlacementsTest, SubregionedLargePoolStaysContiguous) {
  const MemsGeometry geom{MemsParams{}};
  const ExtentLayout layout = BuildPolicy("subregioned", geom, 1000, kLarge);
  // Large streams stay physically contiguous (sequential transfers keep the
  // streaming rate); only the small pool is Y-banded.
  const auto extents = layout.MapExtent(1000 + 400000, 800);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].blocks, 800);
  // And small-pool extents are short, row-band runs.
  const auto small_extents = layout.MapExtent(0, 500);
  EXPECT_GT(small_extents.size(), 1u);
  for (const PhysExtent& e : small_extents) {
    const MemsAddress first = geom.Decode(e.lbn);
    const MemsAddress last = geom.Decode(e.lbn + e.blocks - 1);
    EXPECT_EQ(first.cylinder, last.cylinder);
    EXPECT_EQ(first.track, last.track);
    EXPECT_LE(std::abs(last.row - first.row), 6);
  }
}

}  // namespace
}  // namespace mstk
