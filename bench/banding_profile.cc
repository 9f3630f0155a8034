// §2.4.12 quantified: banded (zoned) recording gives disks up to a ~46%
// bandwidth difference between the outermost and innermost tracks; MEMS
// media is laid out as parallel lines, so "bits per track" is uniform and
// streaming bandwidth is flat across the whole LBN space.
//
// Expected shape: the disk column falls ~1.46x from first to last band;
// the MEMS column is constant.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv);
  const TableWriter table(opts.csv);

  MemsDevice mems;
  DiskDevice disk;
  constexpr int32_t kBlocks = 4096;  // 2 MB sequential reads

  std::printf("Streaming bandwidth vs position (2 MB sequential reads)\n");
  table.Row({"lbn_position", "MEMS_MB_s", "disk_MB_s"});
  for (int decile = 0; decile <= 9; ++decile) {
    const auto measure = [&](StorageDevice& device) {
      device.Reset();
      const int64_t base =
          device.CapacityBlocks() / 10 * decile;
      Request park;
      park.lbn = std::max<int64_t>(0, base - 8);
      park.block_count = 8;
      device.ServiceRequest(park, 0.0);
      Request req;
      req.lbn = base;
      req.block_count = kBlocks;
      ServiceBreakdown bd;
      device.ServiceRequest(req, 10.0, &bd);
      // Rate over the transfer itself (positioning excluded): the zoned
      // media rate for disks, the row-pass rate for MEMS.
      return kBlocks * 512.0 / 1e6 / ((bd.transfer_ms + bd.extra_ms) / 1e3);
    };
    table.Row({Fmt("%.0f%%", decile * 10.0), Fmt("%.1f", measure(mems)),
               Fmt("%.1f", measure(disk))});
  }
  return 0;
}
