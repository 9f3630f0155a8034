// §2.4.11 quantified: speed-matching/prefetch buffers and host caching in
// front of the MEMS device. Two experiments:
//   (a) sequential 4 KB read stream with and without readahead — the
//       speed-matching-buffer role (per-request latency collapses to the
//       amortized media rate);
//   (b) the cello-like workload through caches of increasing size with
//       write-through vs write-back — most reuse is captured by host
//       memory, as the paper expects.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/cache/block_cache.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"
#include "src/workload/cello_like.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  std::printf("(a) sequential 4 KB reads: mean per-request latency (ms)\n");
  table.Row({"readahead_kb", "mean_ms", "effective_MB_s"});
  for (const int32_t readahead : {0, 32, 128, 512, 2048}) {
    MemsDevice backing;
    BlockCacheConfig config;
    config.capacity_blocks = 1 << 20;
    config.readahead_blocks = readahead;
    BlockCache cache(config, &backing);
    const int64_t kReads = opts.Scale(20000);
    double total = 0.0;
    for (int64_t i = 0; i < kReads; ++i) {
      Request req;
      req.lbn = i * 8;
      req.block_count = 8;
      total += cache.ServiceRequest(req, static_cast<double>(i));
    }
    const double mean = total / static_cast<double>(kReads);
    table.Row({Fmt("%.0f", readahead / 2.0), Fmt("%.4f", mean),
               Fmt("%.1f", 4096.0 / 1e6 / (mean / 1e3))});
  }

  std::printf("\n(b) cello-like workload: cache size & write policy\n");
  table.Row({"config", "mean_ms", "hit_rate", "backing_reads", "backing_writes"});
  for (const int64_t mb : {0, 16, 64, 256}) {
    for (const bool write_back : {false, true}) {
      if (mb == 0 && write_back) {
        continue;
      }
      MemsDevice backing;
      std::unique_ptr<BlockCache> cache;
      StorageDevice* device = &backing;
      if (mb > 0) {
        BlockCacheConfig config;
        config.capacity_blocks = mb * 2048;  // MB -> 512 B blocks
        config.readahead_blocks = 64;
        config.write_policy =
            write_back ? WritePolicy::kWriteBack : WritePolicy::kWriteThrough;
        cache = std::make_unique<BlockCache>(config, &backing);
        device = cache.get();
      }
      CelloLikeConfig workload;
      workload.request_count = opts.Scale(30000);
      workload.capacity_blocks = backing.CapacityBlocks();
      Rng rng(8);
      const auto requests = GenerateCelloLike(workload, rng);
      double total = 0.0;
      double now = 0.0;
      for (const Request& req : requests) {
        now = std::max(now, req.arrival_ms);
        now += device->ServiceRequest(req, now);
        total += 0.0;
      }
      double mean = 0.0;
      // Recompute mean service from device activity (closed-loop measure).
      mean = device->activity().busy_ms / static_cast<double>(requests.size());
      char label[64];
      std::snprintf(label, sizeof(label), "%3lldMB %s", static_cast<long long>(mb),
                    mb == 0 ? "none" : (write_back ? "wback" : "wthru"));
      table.Row({label, Fmt("%.4f", mean),
                 cache ? Fmt("%.3f", cache->stats().HitRate()) : "-",
                 Fmt("%.0f", static_cast<double>(backing.activity().blocks_read)),
                 Fmt("%.0f", static_cast<double>(backing.activity().blocks_written))});
    }
  }
  return 0;
}
