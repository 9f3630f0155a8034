// Region-based logical model over tip parallelism (after Kim, Whang, Kim &
// Song, "A Logical Model and Data Placement Strategies for MEMS Storage
// Devices", arXiv:0807.4580).
//
// The sled-offset plane is divided into an x_regions x y_regions grid of
// *regions*: each region is a cylinder band crossed with a tip-sector row
// band, covering every track (tip group) of those cylinders. A region is a
// tip-parallel unit — all of its blocks are reachable with small X and Y
// strokes once the sled is inside it — so placement strategies reason about
// *which region* data lands in and treat the 2-D grid coordinates and
// adjacency as the locality structure, instead of raw LBN distance.
//
// The model is purely logical: it never changes the device's LBN mapping
// (src/mems/geometry.h). It enumerates each region's physical LBN runs in a
// fixed, deterministic order (ascending cylinder, then track, one serpentine-
// aware run per row band) so every placement built on top of it is
// reproducible byte-for-byte.
//
// Grid shapes recover the paper's §5.3 layouts as special cases:
//   25 x 1 — the columnar division (regions = cylinder columns)
//    5 x 5 — the subregioned grid of Fig 9
//    5 x 1 — the subregioned large-pool bands
#ifndef MSTK_SRC_LAYOUT_REGION_MODEL_H_
#define MSTK_SRC_LAYOUT_REGION_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/layout/layout_map.h"
#include "src/mems/geometry.h"

namespace mstk {

// 2-D grid coordinates of a region. x indexes cylinder bands (left to
// right), y indexes row bands (bottom to top).
struct RegionCoord {
  int32_t x = 0;
  int32_t y = 0;

  friend bool operator==(const RegionCoord&, const RegionCoord&) = default;
};

class LogicalRegionModel {
 public:
  // `x_regions` must divide the cylinder count evenly; `y_regions` row bands
  // are rounded like the Fig 9 grid (round(rows * j / y_regions)).
  LogicalRegionModel(const MemsGeometry& geometry, int32_t x_regions, int32_t y_regions);

  int32_t x_regions() const { return x_regions_; }
  int32_t y_regions() const { return y_regions_; }
  int32_t region_count() const { return x_regions_ * y_regions_; }
  const MemsGeometry& geometry() const { return geometry_; }

  // Region ids are y * x_regions + x; both directions are total and cheap.
  RegionCoord Coord(int32_t region) const {
    return RegionCoord{region % x_regions_, region / x_regions_};
  }
  int32_t RegionId(RegionCoord c) const { return c.y * x_regions_ + c.x; }

  // Blocks a region holds (regions tile the device exactly).
  [[nodiscard]] int64_t RegionBlocks(int32_t region) const;
  [[nodiscard]] int64_t TotalBlocks() const { return geometry_.capacity_blocks(); }

  // Appends up to `budget` blocks of region `region` to `layout`, in the
  // model's canonical run order. Returns the number of blocks appended
  // (min(budget, RegionBlocks(region))).
  int64_t AppendRegion(int32_t region, int64_t budget, ExtentLayout* layout) const;

  // The region's physical LBN runs in canonical order (adjacent runs
  // coalesced). Used to seed region-local allocator pools.
  [[nodiscard]] std::vector<PhysExtent> RegionRuns(int32_t region) const;

  // Every region ordered by (Chebyshev distance, squared Euclidean distance,
  // y, x) — the deterministic center-out "hot first" order.
  [[nodiscard]] std::vector<int32_t> RegionsByCenterDistance() const;

  // Boustrophedon walk over the grid (x ascending on even rows, descending
  // on odd rows): consecutive regions are always 4-adjacent, so data laid
  // out along this order crosses region boundaries with a one-region stroke.
  [[nodiscard]] std::vector<int32_t> SerpentineOrder() const;

 private:
  // Row-band boundary j (inclusive start of band j; band j is
  // [row_band(j), row_band(j+1))).
  int32_t RowBand(int32_t j) const;

  MemsGeometry geometry_;
  int32_t x_regions_;
  int32_t y_regions_;
  int32_t cylinders_per_band_;
};

}  // namespace mstk

#endif  // MSTK_SRC_LAYOUT_REGION_MODEL_H_
