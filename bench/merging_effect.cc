// Request-merging effect (OS elevator coalescing, §2.4.11's sequential
// emphasis): the cello-like workload's sequential runs coalesce into
// larger transfers while the device is busy, cutting per-request
// positioning episodes on both device types.
//
// Expected shape: merging helps most when the queue is deep (busy device =
// long plugging window); the MEMS device benefits less in relative terms
// because its positioning is already cheap.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/merging.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/cello_like.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const TableWriter table(opts.csv);

  for (const bool mems : {true, false}) {
    std::unique_ptr<StorageDevice> device;
    if (mems) {
      device = std::make_unique<MemsDevice>();
    } else {
      device = std::make_unique<DiskDevice>();
    }
    std::printf("%s: cello-like workload, SSTF_LBN with and without merging\n",
                mems ? "MEMS" : "Atlas 10K");
    table.Row({"scale", "plain_ms", "merged_ms", "gain", "merges"});
    for (const double scale : mems ? std::vector<double>{8, 12, 16}
                                   : std::vector<double>{1, 2, 3}) {
      CelloLikeConfig config;
      config.request_count = opts.Scale(20000);
      config.capacity_blocks = device->CapacityBlocks();
      config.scale = scale;
      Rng rng(31);
      const auto requests = GenerateCelloLike(config, rng);

      SstfLbnScheduler plain;
      const double t_plain = Run(device.get(), &plain, requests).MeanResponseMs();
      SstfLbnScheduler inner;
      MergingScheduler merging(&inner);
      const double t_merged = Run(device.get(), &merging, requests).MeanResponseMs();
      table.Row({Fmt("%.0f", scale), Fmt("%.3f", t_plain), Fmt("%.3f", t_merged),
                 Fmt("%.1f%%", (1.0 - t_merged / t_plain) * 100.0),
                 Fmt("%.0f", static_cast<double>(merging.merges()))});
    }
    std::printf("\n");
  }
  return 0;
}
