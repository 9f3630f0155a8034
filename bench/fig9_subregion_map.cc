// Figure 9: difference in request service time for subregion accesses
// (§5.1). The sled-offset plane is divided into a 5x5 grid of subregions,
// each 400 x 400 bits, centered at bit offsets {-800,-400,0,400,800} in X
// and Y. Each cell reports the average service time of 10,000 4 KB requests
// that start and end inside that subregion — first with the X settle time
// included, then (in the second line, like the paper's italics) with zero
// settle.
//
// Expected shape (paper): center cell fastest; corner cells 10-20% slower;
// values fall in the ~0.3-0.55 ms range.
//
// The table view also prints each registry LayoutPolicy's hot-region
// footprint on its own region grid (which regions the policy fills first,
// and how much of the Fig 11 small pool the hot set covers); --json writes
// the grid and the footprints as one document. The --csv stream is the grid
// only, unchanged from the pre-registry bench.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/layout/layout_policy.h"
#include "src/layout/region_model.h"
#include "src/mems/mems_device.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

// Average service time (ms) for 4 KB requests confined to the subregion
// centered at bit offsets (dx_bits, dy_bits).
double SubregionMean(MemsDevice& device, int dx_bits, int dy_bits, int64_t count,
                     Rng& rng) {
  const MemsGeometry& geom = device.geometry();
  const MemsParams& p = geom.params();
  const double bit_m = NmToMeters(p.bit_width_nm);

  // Cylinders covering x in [dx-200, dx+200) bits around the center.
  const int32_t c_center = geom.CylinderAtX(dx_bits * bit_m);
  const int32_t c_lo = c_center - 200;

  // Rows whose center lies within [dy-200, dy+200) bits.
  std::vector<int32_t> rows;
  for (int32_t r = 0; r < p.rows_per_track(); ++r) {
    const double yc = (geom.RowBoundaryY(r) + geom.RowBoundaryY(r + 1)) / 2.0;
    if (yc >= (dy_bits - 200) * bit_m && yc < (dy_bits + 200) * bit_m) {
      rows.push_back(r);
    }
  }

  // Park inside the subregion, then measure.
  device.Reset();
  Request req;
  req.type = IoType::kRead;
  req.block_count = 8;
  req.lbn = geom.Encode(MemsAddress{c_center, 0, rows[rows.size() / 2], 0});
  device.ServiceRequest(req, 0.0);

  double total = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    const int32_t cyl = c_lo + static_cast<int32_t>(rng.UniformInt(400));
    const int32_t row = rows[static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(rows.size())))];
    const int32_t track = static_cast<int32_t>(rng.UniformInt(p.tracks_per_cylinder()));
    req.lbn = geom.Encode(MemsAddress{cyl, track, row, 0});
    total += device.ServiceRequest(req, 0.0);
  }
  return total / static_cast<double>(count);
}

// One hot-region footprint row: how `policy` would place the Fig 11 small
// pool (200,000 blocks) on its own region grid.
struct Footprint {
  std::string policy;
  int32_t x_regions;
  int32_t y_regions;
  int32_t hot_regions;      // shortest hot-order prefix covering the pool
  int64_t hot_blocks;       // capacity of that prefix
  std::vector<int32_t> order;  // full hot-region preference order
};

std::vector<Footprint> MakeFootprints(const MemsGeometry& geometry) {
  constexpr int64_t kSmallPool = 200000;
  std::vector<Footprint> footprints;
  for (const LayoutPolicy* policy : AllLayoutPolicies()) {
    if (!policy->needs_mems_geometry()) {
      continue;  // device-agnostic policies have no region structure
    }
    const LogicalRegionModel model = policy->Regions(geometry);
    Footprint f;
    f.policy = policy->name();
    f.x_regions = model.x_regions();
    f.y_regions = model.y_regions();
    f.order = policy->HotRegionOrder(model);
    f.hot_regions = 0;
    f.hot_blocks = 0;
    for (const int32_t region : f.order) {
      if (f.hot_blocks >= kSmallPool) {
        break;
      }
      f.hot_blocks += model.RegionBlocks(region);
      ++f.hot_regions;
    }
    footprints.push_back(std::move(f));
  }
  return footprints;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast | kJson);
  const int64_t count = opts.Scale(10000);
  const int offsets[] = {-800, -400, 0, 400, 800};

  MemsDevice with_settle;           // default: 1 settling time constant
  MemsParams no_settle_params;
  no_settle_params.settle_constants = 0.0;
  MemsDevice no_settle(no_settle_params);

  std::printf("Figure 9: avg 4 KB service time (ms) per 400x400-bit subregion\n");
  std::printf("(first line: with X settle; second line: zero settle)\n\n");
  if (opts.csv) {
    std::printf("dx_bits,dy_bits,with_settle_ms,no_settle_ms\n");
  }
  struct Cell {
    int dx, dy;
    double with_settle_ms, no_settle_ms;
  };
  std::vector<Cell> cells;
  // Print rows top (dy=+800) to bottom, like the paper's figure.
  for (int yi = 4; yi >= 0; --yi) {
    const int dy = offsets[yi];
    std::vector<double> settled(5);
    std::vector<double> unsettled(5);
    for (int xi = 0; xi < 5; ++xi) {
      Rng rng(900 + static_cast<uint64_t>(yi * 5 + xi));
      Rng rng2 = rng;
      settled[static_cast<size_t>(xi)] =
          SubregionMean(with_settle, offsets[xi], dy, count, rng);
      unsettled[static_cast<size_t>(xi)] =
          SubregionMean(no_settle, offsets[xi], dy, count, rng2);
      cells.push_back(Cell{offsets[xi], dy, settled[static_cast<size_t>(xi)],
                           unsettled[static_cast<size_t>(xi)]});
      if (opts.csv) {
        std::printf("%d,%d,%.4f,%.4f\n", offsets[xi], dy,
                    settled[static_cast<size_t>(xi)], unsettled[static_cast<size_t>(xi)]);
      }
    }
    if (!opts.csv) {
      for (int xi = 0; xi < 5; ++xi) {
        std::printf("  %6.3f (%4d,%4d) ", settled[static_cast<size_t>(xi)], offsets[xi], dy);
      }
      std::printf("\n");
      for (int xi = 0; xi < 5; ++xi) {
        std::printf("  %6.3f             ", unsettled[static_cast<size_t>(xi)]);
      }
      std::printf("\n\n");
    }
  }

  const std::vector<Footprint> footprints = MakeFootprints(with_settle.geometry());
  if (!opts.csv) {
    std::printf("Hot-region footprints (200,000-block small pool per policy):\n");
    std::printf("%-14s %-7s %-8s %-11s %s\n", "policy", "grid", "regions",
                "hot(count)", "hot-order prefix");
    for (const Footprint& f : footprints) {
      std::string prefix;
      for (size_t i = 0; i < f.order.size() && i < 6; ++i) {
        if (i > 0) prefix += ",";
        prefix += std::to_string(f.order[i]);
      }
      if (f.order.size() > 6) prefix += ",...";
      std::printf("%-14s %2dx%-4d %-8d %-11s %s\n", f.policy.c_str(), f.x_regions,
                  f.y_regions, f.x_regions * f.y_regions,
                  (std::to_string(f.hot_regions) + " regions").c_str(), prefix.c_str());
    }
  }

  if (!opts.json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.KV("bench", "fig9_subregion_map");
    json.Key("cells");
    json.BeginArray();
    for (const Cell& c : cells) {
      json.BeginObject();
      json.KV("dx_bits", static_cast<int64_t>(c.dx));
      json.KV("dy_bits", static_cast<int64_t>(c.dy));
      json.KV("with_settle_ms", c.with_settle_ms);
      json.KV("no_settle_ms", c.no_settle_ms);
      json.EndObject();
    }
    json.EndArray();
    json.Key("footprints");
    json.BeginArray();
    for (const Footprint& f : footprints) {
      json.BeginObject();
      json.KV("policy", f.policy);
      json.KV("x_regions", static_cast<int64_t>(f.x_regions));
      json.KV("y_regions", static_cast<int64_t>(f.y_regions));
      json.KV("hot_regions", static_cast<int64_t>(f.hot_regions));
      json.KV("hot_blocks", f.hot_blocks);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    if (!WriteFileOrReport(opts.json_path, json.TakeString())) {
      return 1;
    }
  }
  return 0;
}
