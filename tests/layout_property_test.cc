// Randomized properties of the LayoutPolicy family (src/layout):
//  * every policy's layout is a bijection onto device LBNs,
//  * MapBlock agrees with MapExtent everywhere (the non-allocating
//    single-block path cannot drift from the extent walk),
//  * ApplyLayout round-trips: each mapped sub-request covers exactly the
//    per-block images of its logical range,
//  * every policy's extents match pinned digests at four pool sizes,
//  * the LogicalRegionModel tiles the device and its orders are honest
//    permutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/layout/layout_map.h"
#include "src/layout/layout_policy.h"
#include "src/layout/region_model.h"
#include "src/mems/geometry.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

constexpr int64_t kHot = 200000;
constexpr int64_t kCold = 800000;

LayoutSpec MemsSpec(const MemsGeometry& geom, int64_t hot = kHot, int64_t cold = kCold) {
  LayoutSpec spec;
  spec.geometry = &geom;
  spec.device_capacity_blocks = geom.capacity_blocks();
  spec.hot_blocks = hot;
  spec.cold_blocks = cold;
  return spec;
}

// The full physical image of a layout as a sorted extent list.
std::vector<PhysExtent> PhysicalImage(const ExtentLayout& layout) {
  std::vector<PhysExtent> extents =
      layout.MapExtent(0, static_cast<int32_t>(layout.logical_capacity()));
  std::sort(extents.begin(), extents.end(),
            [](const PhysExtent& a, const PhysExtent& b) { return a.lbn < b.lbn; });
  return extents;
}

TEST(LayoutPolicyPropertyTest, EveryPolicyIsABijection) {
  const MemsGeometry geom{MemsParams{}};
  const LayoutSpec spec = MemsSpec(geom);
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    SCOPED_TRACE(policy->name());
    const ExtentLayout layout = policy->Build(spec);
    ASSERT_EQ(layout.logical_capacity(), kHot + kCold);
    const std::vector<PhysExtent> extents = PhysicalImage(layout);
    int64_t covered = 0;
    for (size_t i = 0; i < extents.size(); ++i) {
      EXPECT_GE(extents[i].lbn, 0);
      EXPECT_LE(extents[i].lbn + extents[i].blocks, geom.capacity_blocks());
      if (i > 0) {
        // Disjoint: no physical block is the image of two logical blocks.
        EXPECT_GE(extents[i].lbn, extents[i - 1].lbn + extents[i - 1].blocks)
            << "overlap at extent " << i;
      }
      covered += extents[i].blocks;
    }
    EXPECT_EQ(covered, kHot + kCold);
  }
}

TEST(LayoutPolicyPropertyTest, MapBlockMatchesMapExtentEverywhere) {
  const MemsGeometry geom{MemsParams{}};
  const LayoutSpec spec = MemsSpec(geom);
  Rng rng(101);
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    SCOPED_TRACE(policy->name());
    const ExtentLayout layout = policy->Build(spec);
    for (int i = 0; i < 2000; ++i) {
      const int64_t logical = rng.UniformInt(layout.logical_capacity());
      const std::vector<PhysExtent> one = layout.MapExtent(logical, 1);
      ASSERT_EQ(one.size(), 1u);
      EXPECT_EQ(layout.MapBlock(logical), one[0].lbn);
    }
    // Extent boundaries are where the two paths could disagree.
    EXPECT_EQ(layout.MapBlock(0), layout.MapExtent(0, 1)[0].lbn);
    const int64_t last = layout.logical_capacity() - 1;
    EXPECT_EQ(layout.MapBlock(last), layout.MapExtent(last, 1)[0].lbn);
  }
}

TEST(LayoutPolicyPropertyTest, ApplyLayoutRoundTripsPerBlock) {
  const MemsGeometry geom{MemsParams{}};
  const LayoutSpec spec = MemsSpec(geom);
  Rng rng(202);
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    SCOPED_TRACE(policy->name());
    const ExtentLayout layout = policy->Build(spec);
    std::vector<Request> requests(300);
    for (Request& req : requests) {
      // Mix single-block requests (the fast path) with multi-block ones.
      req.block_count = rng.Bernoulli(0.3) ? 1 : static_cast<int32_t>(
                                                     1 + rng.UniformInt(700));
      req.lbn = rng.UniformInt(layout.logical_capacity() - req.block_count);
    }
    const std::vector<Request> mapped = ApplyLayout(layout, requests);
    size_t cursor = 0;
    for (const Request& req : requests) {
      int64_t logical = req.lbn;
      int64_t remaining = req.block_count;
      while (remaining > 0) {
        ASSERT_LT(cursor, mapped.size());
        const Request& sub = mapped[cursor++];
        ASSERT_LE(sub.block_count, remaining);
        for (int32_t b = 0; b < sub.block_count; ++b) {
          ASSERT_EQ(sub.lbn + b, layout.MapBlock(logical + b))
              << "logical " << logical + b;
        }
        logical += sub.block_count;
        remaining -= sub.block_count;
      }
    }
    EXPECT_EQ(cursor, mapped.size());
  }
}

// FNV-1a over each extent's lbn and blocks, as 8 little-endian bytes each.
uint64_t ExtentDigest(const std::vector<PhysExtent>& extents) {
  uint64_t hash = 14695981039346656037ull;
  for (const PhysExtent& e : extents) {
    for (const int64_t value : {e.lbn, static_cast<int64_t>(e.blocks)}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (static_cast<uint64_t>(value) >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ull;
      }
    }
  }
  return hash;
}

// Every policy's physical extents, in logical order, at four pool sizes. The
// four paper policies' pins were taken from the frozen pre-registry §5.3
// factories, which the policies matched extent for extent. (1000, 4915200)
// is the one size whose cold pool reaches past X band 1, so it alone pins
// the order of the outer bands.
TEST(LayoutPolicyPropertyTest, EveryPolicyMatchesPinnedExtents) {
  const struct {
    const char* policy;
    int64_t hot;
    int64_t cold;
    size_t extents;
    uint64_t digest;
  } kPins[] = {
      {"simple", 200000, 800000, 1, 0xc6c0e8007a8245e8ull},
      {"organ-pipe", 200000, 800000, 2, 0xd9c503f25384fb45ull},
      {"columnar", 200000, 800000, 2, 0x8a75a55559c290c3ull},
      {"subregioned", 200000, 800000, 2001, 0x224124abf3cb4340ull},
      {"region-seq", 200000, 800000, 5001, 0x2b475839f3e3648aull},
      {"tiled", 200000, 800000, 9500, 0xd34e1328b48550b0ull},
      {"hot-cold", 200000, 800000, 6001, 0xd078f8b413bd02ceull},
      {"simple", 100000, 500000, 1, 0x345d497a34a640b9ull},
      {"organ-pipe", 100000, 500000, 2, 0x8e855f956da3baffull},
      {"columnar", 100000, 500000, 2, 0xa81d0d6f31cb739bull},
      {"subregioned", 100000, 500000, 1001, 0x5b7427ad9837367dull},
      {"region-seq", 100000, 500000, 3001, 0xa6e898a3f0cd9a60ull},
      {"tiled", 100000, 500000, 5500, 0x7fa38819571e7dc5ull},
      {"hot-cold", 100000, 500000, 3501, 0x75afd93f517c145dull},
      {"simple", 1000, 2457600, 1, 0x79899ea9cbbcca31ull},
      {"organ-pipe", 1000, 2457600, 2, 0x6562f2fb3d395aefull},
      {"columnar", 1000, 2457600, 2, 0xd1ca98d5f50807f8ull},
      {"subregioned", 1000, 2457600, 11, 0x1ac762c96d19ecbfull},
      {"region-seq", 1000, 2457600, 16323, 0x97b5c9e324480c27ull},
      {"tiled", 1000, 2457600, 21739, 0xd060704ebb8cfd4dull},
      {"hot-cold", 1000, 2457600, 16325, 0x6f1e37b5adf21656ull},
      {"simple", 1000, 4915200, 1, 0xa9eb9778c428975full},
      {"organ-pipe", 1000, 4915200, 2, 0x847b4a3c1cc8fef2ull},
      {"columnar", 1000, 4915200, 3, 0xcb4eae3649781601ull},
      {"subregioned", 1000, 4915200, 12, 0x2060a361bbcdf5baull},
      {"region-seq", 1000, 4915200, 38886, 0x5f8f4b6e71adc035ull},
      {"tiled", 1000, 4915200, 39722, 0x2c115c3f5c8741d0ull},
      {"hot-cold", 1000, 4915200, 38471, 0x1a7a65f7a92ee338ull},
  };
  const MemsGeometry geom{MemsParams{}};
  for (const auto& pin : kPins) {
    SCOPED_TRACE(std::string(pin.policy) + " at " + std::to_string(pin.hot) + "+" +
                 std::to_string(pin.cold));
    const LayoutPolicy* policy = FindLayoutPolicy(pin.policy);
    ASSERT_NE(policy, nullptr);
    const ExtentLayout layout = policy->Build(MemsSpec(geom, pin.hot, pin.cold));
    ASSERT_EQ(layout.logical_capacity(), pin.hot + pin.cold);
    const std::vector<PhysExtent> extents =
        layout.MapExtent(0, static_cast<int32_t>(layout.logical_capacity()));
    EXPECT_EQ(extents.size(), pin.extents);
    EXPECT_EQ(ExtentDigest(extents), pin.digest);
  }
  // Every registered policy is pinned at all four sizes.
  EXPECT_EQ(std::size(kPins), 4 * AllLayoutPolicies().size());
}

TEST(RegionModelPropertyTest, RegionsTileTheDevice) {
  const MemsGeometry geom{MemsParams{}};
  for (const auto& [x, y] : std::vector<std::pair<int32_t, int32_t>>{
           {5, 5}, {25, 1}, {5, 1}, {1, 1}}) {
    SCOPED_TRACE(x);
    const LogicalRegionModel model(geom, x, y);
    std::vector<PhysExtent> all;
    int64_t total = 0;
    for (int32_t r = 0; r < model.region_count(); ++r) {
      const int64_t blocks = model.RegionBlocks(r);
      EXPECT_GT(blocks, 0);
      total += blocks;
      int64_t run_total = 0;
      for (const PhysExtent& run : model.RegionRuns(r)) {
        run_total += run.blocks;
        all.push_back(run);
      }
      EXPECT_EQ(run_total, blocks);
    }
    EXPECT_EQ(total, geom.capacity_blocks());
    std::sort(all.begin(), all.end(),
              [](const PhysExtent& a, const PhysExtent& b) { return a.lbn < b.lbn; });
    for (size_t i = 1; i < all.size(); ++i) {
      ASSERT_GE(all[i].lbn, all[i - 1].lbn + all[i - 1].blocks);
    }
    EXPECT_EQ(all.front().lbn, 0);
    EXPECT_EQ(all.back().lbn + all.back().blocks, geom.capacity_blocks());
  }
}

TEST(RegionModelPropertyTest, OrdersArePermutationsAndSerpentineIsAdjacent) {
  const MemsGeometry geom{MemsParams{}};
  const LogicalRegionModel model(geom, 5, 5);
  auto check_permutation = [&](const std::vector<int32_t>& order) {
    std::vector<int32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), static_cast<size_t>(model.region_count()));
    for (int32_t r = 0; r < model.region_count(); ++r) {
      ASSERT_EQ(sorted[static_cast<size_t>(r)], r);
    }
  };
  check_permutation(model.RegionsByCenterDistance());
  check_permutation(model.SerpentineOrder());
  // Center-out order starts at the exact center of the odd grid.
  EXPECT_EQ(model.RegionsByCenterDistance().front(), model.RegionId({2, 2}));
  // Serpentine neighbors are always 4-adjacent.
  const std::vector<int32_t> serp = model.SerpentineOrder();
  for (size_t i = 1; i < serp.size(); ++i) {
    const RegionCoord a = model.Coord(serp[i - 1]);
    const RegionCoord b = model.Coord(serp[i]);
    EXPECT_EQ(std::abs(a.x - b.x) + std::abs(a.y - b.y), 1)
        << "step " << i << " jumps";
  }
  // Every policy's hot order is a permutation of its own grid.
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    SCOPED_TRACE(policy->name());
    const LogicalRegionModel own = policy->Regions(geom);
    const std::vector<int32_t> order = policy->HotRegionOrder(own);
    std::vector<int32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), static_cast<size_t>(own.region_count()));
    for (int32_t r = 0; r < own.region_count(); ++r) {
      ASSERT_EQ(sorted[static_cast<size_t>(r)], r);
    }
  }
}

// KAIST strategy shapes: where each policy physically puts the pools.
TEST(LayoutPolicyPropertyTest, KaistStrategyShapes) {
  const MemsGeometry geom{MemsParams{}};
  const LayoutSpec spec = MemsSpec(geom);

  // tiled: the hot pool (200k < 250k center cell) lives entirely in the
  // centermost cell — both X and Y confined.
  const ExtentLayout tiled = FindLayoutPolicy("tiled")->Build(spec);
  for (int64_t logical = 0; logical < kHot; logical += 997) {
    const MemsAddress addr = geom.Decode(tiled.MapBlock(logical));
    EXPECT_GE(addr.cylinder, 1000);
    EXPECT_LT(addr.cylinder, 1500);
    EXPECT_GE(addr.row, 11);
    EXPECT_LT(addr.row, 16);
  }

  // hot-cold: the cold pool never enters the hot partition (here exactly
  // the center cell).
  const ExtentLayout hot_cold = FindLayoutPolicy("hot-cold")->Build(spec);
  for (int64_t logical = kHot; logical < kHot + kCold; logical += 7919) {
    const MemsAddress addr = geom.Decode(hot_cold.MapBlock(logical));
    const bool in_center = addr.cylinder >= 1000 && addr.cylinder < 1500 &&
                           addr.row >= 11 && addr.row < 16;
    EXPECT_FALSE(in_center) << "cold block in hot partition at " << logical;
  }

  // region-seq: the logical space walks the serpentine region order, so
  // logical 0 is in the walk's first region (bottom-left cell) and
  // consecutive region-sized chunks land in 4-adjacent regions.
  const ExtentLayout seq = FindLayoutPolicy("region-seq")->Build(spec);
  const MemsAddress first = geom.Decode(seq.MapBlock(0));
  EXPECT_LT(first.cylinder, 500);
  EXPECT_LT(first.row, 6);
}

}  // namespace
}  // namespace mstk
