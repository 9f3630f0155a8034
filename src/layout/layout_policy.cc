#include "src/layout/layout_policy.h"

#include <algorithm>

#include "src/sim/check.h"

namespace mstk {
namespace {

constexpr int32_t kGrid = 5;      // 5x5 subregion grid (Fig 9, KAIST strategies)
constexpr int32_t kColumns = 25;  // columnar division

// ---------------------------------------------------------------------------
// Paper layouts (§5.3).

class SimplePolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "simple";
    return kName;
  }
  bool needs_mems_geometry() const override { return false; }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    MSTK_CHECK(spec.hot_blocks + spec.cold_blocks <= spec.capacity(),
               "pools exceed device capacity");
    ExtentLayout layout(name());
    layout.Append(0, spec.hot_blocks + spec.cold_blocks);
    return layout;
  }
};

class OrganPipePolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "organ-pipe";
    return kName;
  }
  bool needs_mems_geometry() const override { return false; }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    const int64_t capacity = spec.capacity();
    MSTK_CHECK(spec.hot_blocks + spec.cold_blocks <= capacity,
               "pools exceed device capacity");
    ExtentLayout layout(name());
    const int64_t center = capacity / 2;
    const int64_t hot_base = center - spec.hot_blocks / 2;
    MSTK_CHECK(hot_base >= 0, "hot pool exceeds device capacity");
    layout.Append(hot_base, spec.hot_blocks);
    // Cold data flanks the hot center, half per side with spill-over.
    const int64_t right_room = capacity - (hot_base + spec.hot_blocks);
    const int64_t left_room = hot_base;
    int64_t right_take = std::min(spec.cold_blocks / 2, right_room);
    const int64_t left_take = std::min(spec.cold_blocks - right_take, left_room);
    right_take = std::min(spec.cold_blocks - left_take, right_room);
    MSTK_CHECK(left_take + right_take == spec.cold_blocks,
               "cold pool exceeds device capacity");
    if (right_take > 0) {
      layout.Append(hot_base + spec.hot_blocks, right_take);
    }
    if (left_take > 0) {
      layout.Append(hot_base - left_take, left_take);
    }
    return layout;
  }
};

class ColumnarPolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "columnar";
    return kName;
  }

  LogicalRegionModel Regions(const MemsGeometry& geometry) const override {
    return LogicalRegionModel(geometry, kColumns, 1);
  }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    MSTK_CHECK(spec.geometry != nullptr, "columnar layout needs MEMS geometry");
    const LogicalRegionModel model = Regions(*spec.geometry);
    ExtentLayout layout(name());
    // Hot pool: the center column.
    const int32_t center = model.RegionId(RegionCoord{kColumns / 2, 0});
    MSTK_CHECK(spec.hot_blocks <= model.RegionBlocks(center),
               "hot pool exceeds the center column");
    model.AppendRegion(center, spec.hot_blocks, &layout);
    // Cold pool: the 10 leftmost then 10 rightmost columns; the 5 center
    // columns stay reserved for the hot pool.
    int64_t remaining = spec.cold_blocks;
    for (int32_t col = 0; col < kColumns && remaining > 0; ++col) {
      if (col >= 10 && col < 15) {
        continue;
      }
      remaining -= model.AppendRegion(model.RegionId(RegionCoord{col, 0}), remaining,
                                      &layout);
    }
    MSTK_CHECK(remaining == 0, "cold pool exceeds the 20 outer columns");
    return layout;
  }
};

class SubregionedPolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "subregioned";
    return kName;
  }

  LogicalRegionModel Regions(const MemsGeometry& geometry) const override {
    return LogicalRegionModel(geometry, kGrid, kGrid);
  }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    MSTK_CHECK(spec.geometry != nullptr, "subregioned layout needs MEMS geometry");
    const LogicalRegionModel model = Regions(*spec.geometry);
    ExtentLayout layout(name());
    // Hot pool: the centermost cell — confined in both X and Y.
    const int32_t center = model.RegionId(RegionCoord{kGrid / 2, kGrid / 2});
    const int64_t placed = model.AppendRegion(center, spec.hot_blocks, &layout);
    MSTK_CHECK(placed == spec.hot_blocks, "hot pool exceeds the center subregion");
    // Cold pool: full-height X bands 0,1 then 3,4, cylinder-major so
    // sequential streams stay contiguous (the Y subdivision only matters for
    // the seek-bound hot pool).
    const LogicalRegionModel bands(*spec.geometry, kGrid, 1);
    int64_t remaining = spec.cold_blocks;
    for (const int32_t xband : {0, 1, 3, 4}) {
      if (remaining <= 0) {
        break;
      }
      remaining -= bands.AppendRegion(bands.RegionId(RegionCoord{xband, 0}), remaining,
                                      &layout);
    }
    MSTK_CHECK(remaining == 0, "cold pool exceeds the 20 outer subregions");
    return layout;
  }
};

// ---------------------------------------------------------------------------
// KAIST logical-model strategies (arXiv:0807.4580).

// Region-interleaved sequential: the whole logical space (hot pool first)
// walks the grid boustrophedon, so consecutive logical chunks land in
// 4-adjacent regions and sequential scans never pay more than a one-region
// stroke at a region boundary.
class RegionSeqPolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "region-seq";
    return kName;
  }

  LogicalRegionModel Regions(const MemsGeometry& geometry) const override {
    return LogicalRegionModel(geometry, kGrid, kGrid);
  }

  std::vector<int32_t> HotRegionOrder(const LogicalRegionModel& model) const override {
    return model.SerpentineOrder();
  }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    MSTK_CHECK(spec.geometry != nullptr, "region-seq layout needs MEMS geometry");
    const LogicalRegionModel model = Regions(*spec.geometry);
    ExtentLayout layout(name());
    int64_t remaining = spec.hot_blocks + spec.cold_blocks;
    MSTK_CHECK(remaining <= model.TotalBlocks(), "pools exceed device capacity");
    for (const int32_t region : model.SerpentineOrder()) {
      if (remaining <= 0) {
        break;
      }
      remaining -= model.AppendRegion(region, remaining, &layout);
    }
    return layout;
  }
};

// Locality-preserving 2-D tiling: regions fill center-out by (Chebyshev,
// Euclidean) distance — a 2-D organ pipe. The hot pool occupies the
// centermost tiles; progressively colder data lands in progressively
// farther tiles, bounding both the X and the Y stroke of the hot set.
class TiledPolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "tiled";
    return kName;
  }

  LogicalRegionModel Regions(const MemsGeometry& geometry) const override {
    return LogicalRegionModel(geometry, kGrid, kGrid);
  }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    MSTK_CHECK(spec.geometry != nullptr, "tiled layout needs MEMS geometry");
    const LogicalRegionModel model = Regions(*spec.geometry);
    ExtentLayout layout(name());
    int64_t remaining = spec.hot_blocks + spec.cold_blocks;
    MSTK_CHECK(remaining <= model.TotalBlocks(), "pools exceed device capacity");
    for (const int32_t region : model.RegionsByCenterDistance()) {
      if (remaining <= 0) {
        break;
      }
      remaining -= model.AppendRegion(region, remaining, &layout);
    }
    return layout;
  }
};

// Hot/cold region partitioning: the hot partition is the smallest center-out
// set of whole regions that holds the hot pool (it adapts to the hot-set
// size instead of hard-coding one cell or column); those regions are
// reserved — cold data streams through the remaining regions in serpentine
// order and never dilutes the hot partition.
class HotColdPolicy final : public LayoutPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "hot-cold";
    return kName;
  }

  LogicalRegionModel Regions(const MemsGeometry& geometry) const override {
    return LogicalRegionModel(geometry, kGrid, kGrid);
  }

  // The hot partition for `hot_blocks`: the shortest center-out prefix whose
  // capacity covers the pool (at least one region).
  static std::vector<int32_t> HotPartition(const LogicalRegionModel& model,
                                           int64_t hot_blocks) {
    std::vector<int32_t> partition;
    int64_t covered = 0;
    for (const int32_t region : model.RegionsByCenterDistance()) {
      partition.push_back(region);
      covered += model.RegionBlocks(region);
      if (covered >= hot_blocks) {
        break;
      }
    }
    MSTK_CHECK(covered >= hot_blocks, "hot pool exceeds device capacity");
    return partition;
  }

  ExtentLayout Build(const LayoutSpec& spec) const override {
    MSTK_CHECK(spec.geometry != nullptr, "hot-cold layout needs MEMS geometry");
    const LogicalRegionModel model = Regions(*spec.geometry);
    ExtentLayout layout(name());
    const std::vector<int32_t> partition = HotPartition(model, spec.hot_blocks);
    int64_t remaining = spec.hot_blocks;
    for (const int32_t region : partition) {
      remaining -= model.AppendRegion(region, remaining, &layout);
    }
    MSTK_CHECK(remaining == 0, "hot partition fill mismatch");
    // Cold pool: serpentine through the non-partition regions only.
    remaining = spec.cold_blocks;
    for (const int32_t region : model.SerpentineOrder()) {
      if (remaining <= 0) {
        break;
      }
      if (std::find(partition.begin(), partition.end(), region) != partition.end()) {
        continue;
      }
      remaining -= model.AppendRegion(region, remaining, &layout);
    }
    MSTK_CHECK(remaining == 0, "cold pool exceeds the non-hot regions");
    return layout;
  }
};

}  // namespace

LogicalRegionModel LayoutPolicy::Regions(const MemsGeometry& geometry) const {
  return LogicalRegionModel(geometry, 1, 1);
}

std::vector<int32_t> LayoutPolicy::HotRegionOrder(const LogicalRegionModel& model) const {
  return model.RegionsByCenterDistance();
}

const std::vector<const LayoutPolicy*>& AllLayoutPolicies() {
  static const SimplePolicy kSimple;
  static const OrganPipePolicy kOrganPipe;
  static const ColumnarPolicy kColumnar;
  static const SubregionedPolicy kSubregioned;
  static const RegionSeqPolicy kRegionSeq;
  static const TiledPolicy kTiled;
  static const HotColdPolicy kHotCold;
  static const std::vector<const LayoutPolicy*> kAll = {
      &kSimple, &kOrganPipe, &kColumnar, &kSubregioned,
      &kRegionSeq, &kTiled, &kHotCold};
  return kAll;
}

const LayoutPolicy* FindLayoutPolicy(const std::string& name) {
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    if (policy->name() == name) {
      return policy;
    }
  }
  return nullptr;
}

std::string LayoutPolicyNames() {
  std::string names;
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    if (!names.empty()) {
      names += ", ";
    }
    names += policy->name();
  }
  return names;
}

}  // namespace mstk
