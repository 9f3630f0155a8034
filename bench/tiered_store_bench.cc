// §8 / [SGNG00] direction quantified: MEMS-based storage in the memory
// hierarchy as a cache for a large disk. A Zipf-skewed 4 KB workload over
// the disk's capacity runs against (a) the disk alone and (b) tiered
// stores with growing MEMS front ends.
//
// Expected shape: with a skewed working set, even a MEMS tier a fraction
// of a percent of the disk's size absorbs most accesses and pulls the mean
// latency from disk-class (~8 ms) toward MEMS-class (<1 ms).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cache/tiered_store.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t accesses = opts.Scale(30000);

  // Hot working set: Zipf over 1M-aligned 4 KB pages of an 8 GB disk.
  DiskDevice disk;
  const int64_t pages = disk.CapacityBlocks() / 8;
  const ZipfTable popularity(20000, 1.1);  // 20k hot pages, theta=1.1
  const auto run = [&](StorageDevice& device, TieredStore* tier) {
    device.Reset();
    Rng rng(7);
    Rng page_rng(9);
    // Map hot ranks to scattered pages.
    std::vector<int64_t> page_of_rank(20000);
    for (auto& p : page_of_rank) {
      p = page_rng.UniformInt(pages);
    }
    double total = 0.0;
    for (int64_t i = 0; i < accesses; ++i) {
      Request req;
      req.type = rng.Bernoulli(0.7) ? IoType::kRead : IoType::kWrite;
      req.block_count = 8;
      req.lbn = page_of_rank[static_cast<size_t>(popularity.Sample(rng))] * 8;
      total += device.ServiceRequest(req, static_cast<double>(i) * 5.0);
    }
    const double mean = total / static_cast<double>(accesses);
    return std::pair<double, double>(mean, tier != nullptr ? tier->stats().HitRate() : 0.0);
  };

  std::printf("MEMS as a disk cache: Zipf(1.1) 4 KB mix, 70%% reads\n");
  table.Row({"config", "mean_ms", "hit_rate"});
  {
    const auto [mean, hits] = run(disk, nullptr);
    (void)hits;
    table.Row({"disk only", Fmt("%.3f", mean), "-"});
  }
  for (const int64_t mb : {32, 128, 512, 3200}) {
    MemsDevice mems;
    TieredStoreConfig config;
    config.extent_blocks = 64;
    config.fast_capacity_blocks = mb * 2048;
    TieredStore tier(config, &mems, &disk);
    const auto [mean, hits] = run(tier, &tier);
    char label[32];
    std::snprintf(label, sizeof(label), "+%lldMB mems", static_cast<long long>(mb));
    table.Row({label, Fmt("%.3f", mean), Fmt("%.3f", hits)});
  }
  return 0;
}
