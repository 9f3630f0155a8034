// §5 end-to-end: file-system allocation policy on an aged, whole-device
// volume, churned with creates/removes (90% small files, 10% large), then
// probed for small-file latency, large-file scan bandwidth, and metadata
// costs per allocation policy:
//   first-fit  — naive placement; compact while young (everything packs at
//                the low-LBN edge) but the packing point drifts as the
//                volume fills,
//   grouped    — FFS-style allocation groups [MJLF84]: spreads files
//                across the device by design,
//   bipartite  — MEMS-aware (§5.3): metadata *and small files* from the
//                center cylinders, large files outside,
//   region-2d  — 2-D locality-aware (MEMS only): per-region free pools over
//                the tiled policy's 5x5 grid; metadata and small files walk
//                the center-out hot-region order, large files fill the
//                outer regions (src/fs/allocator.h, AllocPolicy::kRegion2D).
//
// Expected shape (and finding): what matters is the compactness of the hot
// set. Spreading (grouped) hurts on both devices when the probe stream has
// no directory locality; bipartite matches first-fit's compactness while
// pinning it at the device's mechanical center, edging out first-fit on
// MEMS. The absolute spread stays small on MEMS — §5.2's point that its
// positioning costs are forgiving — and much larger on the disk.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/fs/mini_fs.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

struct AgingResult {
  double small_read_ms;
  double large_scan_mb_s;
  double create_ms;
  double extents_per_file;
};



AgingResult RunAging(StorageDevice& device, const AllocatorConfig& allocator,
                     int64_t churn_ops) {
  device.Reset();
  MiniFsConfig config;
  config.allocator = allocator;
  MiniFs fs(config, &device);

  Rng rng(13);
  double now = 0.0;
  int64_t next_id = 0;
  std::vector<int64_t> small_files;
  std::vector<int64_t> large_files;
  auto create_one = [&]() {
    const bool large = rng.Bernoulli(0.10);
    const int64_t bytes = large ? (1 << 20) + rng.UniformInt(3 << 20)
                                : 4096 + rng.UniformInt(61440);
    const double t = fs.Create(next_id, bytes, now);
    if (t >= 0.0) {
      (large ? large_files : small_files).push_back(next_id);
      now += t;
      return true;
    }
    return false;
  };

  // Churn phase: keep utilization high; removal pressure when full.
  for (int64_t op = 0; op < churn_ops; ++op) {
    ++next_id;
    const bool want_create = rng.Bernoulli(0.55);
    if (want_create && create_one()) {
      continue;
    }
    auto& pool = (!large_files.empty() && (small_files.empty() || rng.Bernoulli(0.2)))
                     ? large_files
                     : small_files;
    if (pool.empty()) {
      continue;
    }
    const size_t victim = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(pool.size())));
    now += fs.Remove(pool[victim], now);
    pool.erase(pool.begin() + static_cast<int64_t>(victim));
  }

  // Measurement phase.
  AgingResult result{};
  const int kProbe = 2000;
  double small_total = 0.0;
  for (int i = 0; i < kProbe; ++i) {
    const int64_t id = small_files[static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(small_files.size())))];
    const double t = fs.Read(id, now);
    small_total += t;
    now += t;
  }
  result.small_read_ms = small_total / kProbe;

  double large_ms = 0.0;
  double large_mb = 0.0;
  for (int i = 0; i < 200; ++i) {
    const int64_t id = large_files[static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(large_files.size())))];
    const double t = fs.Read(id, now);
    large_ms += t;
    large_mb += static_cast<double>(fs.FileBlocks(id)) * 512.0 / 1e6;
    now += t;
  }
  result.large_scan_mb_s = large_mb / (large_ms / 1e3);

  double create_total = 0.0;
  int creates = 0;
  for (int i = 0; i < 500; ++i) {
    ++next_id;
    const double t = fs.Create(next_id, 16384, now);
    if (t >= 0.0) {
      create_total += t;
      now += t;
      ++creates;
      small_files.push_back(next_id);
    }
  }
  result.create_ms = creates > 0 ? create_total / creates : -1.0;
  result.extents_per_file =
      static_cast<double>(fs.stats().data_extents) /
      static_cast<double>(fs.stats().files);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t churn = opts.Scale(20000);

  const struct {
    const char* name;
    AllocPolicy policy;
  } policies[] = {
      {"first-fit", AllocPolicy::kFirstFit},
      {"grouped", AllocPolicy::kGrouped},
      {"bipartite", AllocPolicy::kBipartite},
  };

  // The volume spans the whole device: placement policy decides where data
  // physically lands. Small files (and all metadata) share the center
  // region / hot region set (§5.3).
  auto make_config = [](int64_t volume, AllocPolicy policy) {
    AllocatorConfig a;
    a.policy = policy;
    a.capacity_blocks = volume;
    a.groups = 64;
    a.center_start = volume * 2 / 5;
    a.center_end = volume * 3 / 5;
    a.center_small_blocks = 256;  // <= 128 KB
    return a;
  };

  for (const bool mems : {true, false}) {
    std::unique_ptr<StorageDevice> device;
    if (mems) {
      device = std::make_unique<MemsDevice>();
    } else {
      device = std::make_unique<DiskDevice>();
    }
    const int64_t volume = device->CapacityBlocks();
    std::printf("%s, aged whole-device volume (%lld churn ops)\n",
                mems ? "MEMS" : "Atlas 10K", static_cast<long long>(churn));
    table.Row({"policy", "small_read_ms", "large_MB_s", "create_ms", "ext/file"});
    for (const auto& p : policies) {
      const AgingResult r = RunAging(*device, make_config(volume, p.policy), churn);
      table.Row({p.name, Fmt("%.3f", r.small_read_ms), Fmt("%.1f", r.large_scan_mb_s),
                 Fmt("%.3f", r.create_ms), Fmt("%.2f", r.extents_per_file)});
    }
    if (mems) {
      // 2-D allocator over the tiled policy's grid; the hot set matches the
      // bipartite center's share of the volume (1/5).
      AllocatorConfig region = MakeRegionAllocatorConfig(
          *FindLayoutPolicy("tiled"),
          static_cast<const MemsDevice*>(device.get())->geometry(),
          /*hot_capacity_blocks=*/volume / 5, /*small_file_blocks=*/256);
      const AgingResult r = RunAging(*device, region, churn);
      table.Row({"region-2d", Fmt("%.3f", r.small_read_ms),
                 Fmt("%.1f", r.large_scan_mb_s), Fmt("%.3f", r.create_ms),
                 Fmt("%.2f", r.extents_per_file)});
    }
    std::printf("\n");
  }
  return 0;
}
