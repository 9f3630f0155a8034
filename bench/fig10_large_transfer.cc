// Figure 10: request service time vs. X seek distance for large (256 KB)
// requests (§5.2). The sled starts parked at cylinder 0 and services a
// 512-block read whose first cylinder is `distance` cylinders away.
//
// Expected shape (paper): the transfer dominates; even a ~1000-cylinder
// seek adds only ~10-12% to the service time. The same sweep on the Atlas
// 10K (appended for contrast) more than doubles.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv);
  const TableWriter table(opts.csv);

  MemsDevice mems;
  const MemsGeometry& geom = mems.geometry();
  constexpr int32_t kBlocks = 512;  // 256 KB

  std::printf("Figure 10: 256 KB read service time vs X seek distance (MEMS)\n");
  table.Row({"distance_cyl", "service_ms", "penalty_vs_0"});
  double base_ms = 0.0;
  for (int32_t distance = 0; distance <= 2400; distance += 200) {
    mems.Reset();
    // Park at cylinder 0, top of the media, about to move inward.
    Request park;
    park.lbn = geom.Encode(MemsAddress{0, 0, 0, 0});
    park.block_count = 20;
    (void)mems.ServiceRequest(park, 0.0);
    Request req;
    req.lbn = geom.Encode(MemsAddress{distance, 0, 0, 0});
    req.block_count = kBlocks;
    const double ms = mems.ServiceRequest(req, 10.0);
    if (distance == 0) {
      base_ms = ms;
    }
    table.Row({Fmt("%.0f", distance), Fmt("%.3f", ms),
               Fmt("%+.1f%%", (ms / base_ms - 1.0) * 100.0)});
  }

  std::printf("\nContrast: 256 KB read vs seek distance on the Atlas 10K\n");
  table.Row({"distance_cyl", "service_ms", "penalty_vs_0"});
  DiskDevice disk;
  double disk_base = 0.0;
  for (int32_t distance = 0; distance <= 9600; distance += 800) {
    disk.Reset();
    Request park;
    park.lbn = 0;
    park.block_count = 8;
    (void)disk.ServiceRequest(park, 0.0);
    Request req;
    req.lbn = disk.geometry().Encode(DiskAddress{distance, 0, 0});
    req.block_count = kBlocks;
    const double ms = disk.ServiceRequest(req, 100.0);
    if (distance == 0) {
      disk_base = ms;
    }
    table.Row({Fmt("%.0f", distance), Fmt("%.3f", ms),
               Fmt("%+.1f%%", (ms / disk_base - 1.0) * 100.0)});
  }
  return 0;
}
