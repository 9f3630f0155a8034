// §6.2 quantified: RAID behavior on MEMS vs disk arrays. The paper argues
// MEMS-based storage devices suit code-based redundancy (RAID-5) because
// the parity read-modify-write costs a turnaround, not a rotation — making
// the small-write penalty nearly disappear.
//
// Expected shape: RAID-5 4 KB writes cost ~4x a plain write on the disk
// array (seek + rotation + full-rev RMW) but only ~2x on the MEMS array;
// in absolute terms the MEMS array's parity small write stays under a
// millisecond, ~20x faster than the disk array's.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/array/raid.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

struct Fleet {
  std::vector<std::unique_ptr<StorageDevice>> owned;
  std::vector<StorageDevice*> members;
};

Fleet MakeFleet(bool mems, int n) {
  Fleet fleet;
  for (int i = 0; i < n; ++i) {
    if (mems) {
      fleet.owned.push_back(std::make_unique<MemsDevice>());
    } else {
      fleet.owned.push_back(std::make_unique<DiskDevice>());
    }
    fleet.members.push_back(fleet.owned.back().get());
  }
  return fleet;
}

double MeanServiceMs(StorageDevice* device, IoType type, int32_t blocks, int64_t count,
                     uint64_t seed) {
  device->Reset();
  Rng rng(seed);
  double total = 0.0;
  double now = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    Request req;
    req.type = type;
    req.block_count = blocks;
    req.lbn = rng.UniformInt(device->CapacityBlocks() - blocks);
    const double t = device->ServiceRequest(req, now);
    total += t;
    now += t + 1.0;
  }
  return total / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t count = opts.Scale(2000);

  std::printf("RAID on MEMS vs disk arrays (5 members, 32 KB stripe unit)\n\n");
  table.Row({"config", "4K_read", "4K_write", "256K_read", "256K_write"});
  for (const bool mems : {true, false}) {
    Fleet solo_fleet = MakeFleet(mems, 1);
    StorageDevice* solo = solo_fleet.members[0];
    Fleet f0 = MakeFleet(mems, 5);
    RaidArray raid0(RaidConfig{RaidLevel::kRaid0, 64}, f0.members);
    Fleet f1 = MakeFleet(mems, 5);
    RaidArray raid1(RaidConfig{RaidLevel::kRaid1, 64}, f1.members);
    Fleet f5 = MakeFleet(mems, 5);
    RaidArray raid5(RaidConfig{RaidLevel::kRaid5, 64}, f5.members);

    struct Target {
      const char* label;
      StorageDevice* device;
    };
    const Target targets[] = {
        {mems ? "mems solo" : "disk solo", solo},
        {mems ? "mems raid0" : "disk raid0", &raid0},
        {mems ? "mems raid1" : "disk raid1", &raid1},
        {mems ? "mems raid5" : "disk raid5", &raid5},
    };
    for (const Target& target : targets) {
      table.Row({target.label,
                 Fmt("%.3f", MeanServiceMs(target.device, IoType::kRead, 8, count, 1)),
                 Fmt("%.3f", MeanServiceMs(target.device, IoType::kWrite, 8, count, 2)),
                 Fmt("%.3f", MeanServiceMs(target.device, IoType::kRead, 512, count / 4, 3)),
                 Fmt("%.3f", MeanServiceMs(target.device, IoType::kWrite, 512, count / 4, 4))});
    }
    std::printf("\n");
  }

  std::printf("Degraded-mode reads (one failed member, RAID-5):\n");
  table.Row({"config", "4K_read_ok", "4K_read_degraded"});
  for (const bool mems : {true, false}) {
    Fleet fleet = MakeFleet(mems, 5);
    RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, fleet.members);
    const double healthy = MeanServiceMs(&raid, IoType::kRead, 8, count, 5);
    raid.Reset();
    raid.SetMemberFailed(2, true);
    Rng rng(5);
    double total = 0.0;
    double now = 0.0;
    for (int64_t i = 0; i < count; ++i) {
      Request req;
      req.block_count = 8;
      req.lbn = rng.UniformInt(raid.CapacityBlocks() - 8);
      const double t = raid.ServiceRequest(req, now);
      total += t;
      now += t + 1.0;
    }
    table.Row({mems ? "mems raid5" : "disk raid5", Fmt("%.3f", healthy),
               Fmt("%.3f", total / static_cast<double>(count))});
  }
  return 0;
}
