#include "src/layout/region_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/sim/check.h"

namespace mstk {

LogicalRegionModel::LogicalRegionModel(const MemsGeometry& geometry, int32_t x_regions,
                                       int32_t y_regions)
    : geometry_(geometry), x_regions_(x_regions), y_regions_(y_regions) {
  MSTK_CHECK(x_regions_ > 0 && y_regions_ > 0, "region grid must be non-empty");
  const MemsParams& p = geometry_.params();
  MSTK_CHECK(p.cylinders() % x_regions_ == 0,
             "x_regions must divide the cylinder count evenly");
  MSTK_CHECK(y_regions_ <= p.rows_per_track(),
             "y_regions exceeds the rows of one tip track");
  cylinders_per_band_ = p.cylinders() / x_regions_;
}

int32_t LogicalRegionModel::RowBand(int32_t j) const {
  const int32_t rows = geometry_.params().rows_per_track();
  if (j <= 0) {
    return 0;
  }
  if (j >= y_regions_) {
    return rows;
  }
  return static_cast<int32_t>((static_cast<int64_t>(rows) * j + y_regions_ / 2) /
                              y_regions_);
}

int64_t LogicalRegionModel::RegionBlocks(int32_t region) const {
  MSTK_CHECK(region >= 0 && region < region_count(), "region out of range");
  const MemsParams& p = geometry_.params();
  const RegionCoord c = Coord(region);
  const int64_t rows = RowBand(c.y + 1) - RowBand(c.y);
  return static_cast<int64_t>(cylinders_per_band_) * p.tracks_per_cylinder() * rows *
         p.slots_per_row();
}

int64_t LogicalRegionModel::AppendRegion(int32_t region, int64_t budget,
                                         ExtentLayout* layout) const {
  MSTK_CHECK(region >= 0 && region < region_count(), "region out of range");
  MSTK_CHECK(layout != nullptr, "AppendRegion needs a layout");
  if (budget <= 0) {
    return 0;
  }
  const MemsParams& p = geometry_.params();
  const RegionCoord c = Coord(region);
  const int32_t r0 = RowBand(c.y);
  const int32_t r1 = RowBand(c.y + 1);  // exclusive
  const int64_t run_blocks = static_cast<int64_t>(r1 - r0) * p.slots_per_row();
  const int32_t c0 = c.x * cylinders_per_band_;
  int64_t placed = 0;
  for (int32_t cyl = c0; cyl < c0 + cylinders_per_band_ && placed < budget; ++cyl) {
    for (int32_t track = 0; track < p.tracks_per_cylinder() && placed < budget; ++track) {
      // Serpentine row order: the lowest LBN of the band [r0, r1) sits at r0
      // on even tracks but r1-1 on odd ones.
      const int64_t base = std::min(geometry_.Encode(MemsAddress{cyl, track, r0, 0}),
                                    geometry_.Encode(MemsAddress{cyl, track, r1 - 1, 0}));
      const int64_t take = std::min(run_blocks, budget - placed);
      layout->Append(base, take);
      placed += take;
    }
  }
  return placed;
}

std::vector<PhysExtent> LogicalRegionModel::RegionRuns(int32_t region) const {
  ExtentLayout scratch("region-runs");
  const int64_t blocks = AppendRegion(region, RegionBlocks(region), &scratch);
  return scratch.MapExtent(0, static_cast<int32_t>(std::min<int64_t>(
                                  blocks, std::numeric_limits<int32_t>::max())));
}

std::vector<int32_t> LogicalRegionModel::RegionsByCenterDistance() const {
  const double cx = (x_regions_ - 1) / 2.0;
  const double cy = (y_regions_ - 1) / 2.0;
  std::vector<int32_t> order(static_cast<size_t>(region_count()));
  for (int32_t r = 0; r < region_count(); ++r) {
    order[static_cast<size_t>(r)] = r;
  }
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const RegionCoord ca = Coord(a);
    const RegionCoord cb = Coord(b);
    const double cheb_a = std::max(std::abs(ca.x - cx), std::abs(ca.y - cy));
    const double cheb_b = std::max(std::abs(cb.x - cx), std::abs(cb.y - cy));
    if (cheb_a != cheb_b) {
      return cheb_a < cheb_b;
    }
    const double eu_a = (ca.x - cx) * (ca.x - cx) + (ca.y - cy) * (ca.y - cy);
    const double eu_b = (cb.x - cx) * (cb.x - cx) + (cb.y - cy) * (cb.y - cy);
    if (eu_a != eu_b) {
      return eu_a < eu_b;
    }
    return a < b;  // (y, x) order: ids are y-major
  });
  return order;
}

std::vector<int32_t> LogicalRegionModel::SerpentineOrder() const {
  std::vector<int32_t> order;
  order.reserve(static_cast<size_t>(region_count()));
  for (int32_t y = 0; y < y_regions_; ++y) {
    if (y % 2 == 0) {
      for (int32_t x = 0; x < x_regions_; ++x) {
        order.push_back(RegionId(RegionCoord{x, y}));
      }
    } else {
      for (int32_t x = x_regions_ - 1; x >= 0; --x) {
        order.push_back(RegionId(RegionCoord{x, y}));
      }
    }
  }
  return order;
}

}  // namespace mstk
