// §5.3's organ-pipe caveat, quantified: "blocks must be periodically
// shuffled to maintain the frequency distribution... the layout requires
// some state". This bench measures both sides of that trade:
//   * the per-access gain of having the (drifted) hot set re-centered,
//   * the device time the shuffle itself costs (reading every hot object
//     from its old home and writing it into the center),
// and reports the number of hot-set accesses needed to amortize one
// shuffle. The bipartite layouts get the gain statically — no shuffles,
// no popularity tracking — which is the §5.3 argument for them.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

constexpr int64_t kHotObjects = 4096;  // 16 MB hot set of 4 KB objects
constexpr int32_t kObjBlocks = 8;

double MeanAccess(StorageDevice& device, const std::vector<int64_t>& base_of,
                  int64_t probes, Rng& rng) {
  double total = 0.0;
  for (int64_t i = 0; i < probes; ++i) {
    Request req;
    req.lbn = base_of[static_cast<size_t>(rng.UniformInt(kHotObjects))];
    req.block_count = kObjBlocks;
    total += device.ServiceRequest(req, 0.0);
  }
  return total / static_cast<double>(probes);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t probes = opts.Scale(10000);

  std::printf("Organ-pipe shuffle economics (hot set drifted to random spots)\n");
  table.Row({"device", "scattered_ms", "centered_ms", "gain_ms", "shuffle_ms",
             "amortize_after"});
  for (const bool mems : {true, false}) {
    std::unique_ptr<StorageDevice> device;
    if (mems) {
      device = std::make_unique<MemsDevice>();
    } else {
      device = std::make_unique<DiskDevice>();
    }
    const int64_t capacity = device->CapacityBlocks();

    // Drifted layout: hot objects scattered across the device.
    std::vector<int64_t> scattered(kHotObjects);
    Rng place_rng(5);
    for (auto& base : scattered) {
      base = place_rng.UniformInt(capacity / kObjBlocks - 1) * kObjBlocks;
    }
    // Re-centered layout: packed around the device middle.
    std::vector<int64_t> centered(kHotObjects);
    const int64_t center_base = capacity / 2 - kHotObjects * kObjBlocks / 2;
    for (int64_t i = 0; i < kHotObjects; ++i) {
      centered[static_cast<size_t>(i)] = center_base + i * kObjBlocks;
    }

    Rng rng(7);
    device->Reset();
    const double scattered_ms = MeanAccess(*device, scattered, probes, rng);

    // The shuffle: read each object from its drifted home, write it into
    // its centered slot (device time, charged like any other I/O).
    device->Reset();
    double shuffle_ms = 0.0;
    double now = 0.0;
    for (int64_t i = 0; i < kHotObjects; ++i) {
      Request rd;
      rd.lbn = scattered[static_cast<size_t>(i)];
      rd.block_count = kObjBlocks;
      const double t1 = device->ServiceRequest(rd, now);
      Request wr;
      wr.type = IoType::kWrite;
      wr.lbn = centered[static_cast<size_t>(i)];
      wr.block_count = kObjBlocks;
      const double t2 = device->ServiceRequest(wr, now + t1);
      shuffle_ms += t1 + t2;
      now += t1 + t2;
    }

    const double centered_ms = MeanAccess(*device, centered, probes, rng);
    const double gain = scattered_ms - centered_ms;
    table.Row({mems ? "MEMS" : "Atlas10K", Fmt("%.3f", scattered_ms),
               Fmt("%.3f", centered_ms), Fmt("%.3f", gain), Fmt("%.0f", shuffle_ms),
               gain > 0 ? Fmt("%.0f", shuffle_ms / gain) : "never"});
  }
  std::printf(
      "\nThe static bipartite layouts earn the centered latency without ever\n"
      "paying the shuffle or tracking per-block popularity (§5.3).\n");
  return 0;
}
