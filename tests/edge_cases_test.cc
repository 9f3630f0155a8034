// Edge cases and less-traveled paths across modules.
#include <gtest/gtest.h>

#include <memory>

#include "src/cache/tiered_store.h"
#include "src/array/raid.h"
#include "src/disk/disk_device.h"
#include "src/fs/mini_fs.h"
#include "src/mems/mems_device.h"
#include "src/power/power_manager.h"
#include "src/sched/fcfs.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

TEST(TieredStoreEdgeTest, EstimateRoutesByResidency) {
  MemsDevice fast;
  DiskDevice slow;
  TieredStoreConfig config;
  config.extent_blocks = 64;
  config.fast_capacity_blocks = 64 * 64;
  TieredStore store(config, &fast, &slow);
  Request req;
  req.lbn = 100000;
  req.block_count = 8;
  // Cold: disk-class estimate.
  EXPECT_GT(store.EstimatePositioningMs(req, 0.0), 1.0);
  (void)store.ServiceRequest(req, 0.0);
  // Warm: MEMS-class estimate.
  EXPECT_LT(store.EstimatePositioningMs(req, 10.0), 1.0);
}

TEST(RaidEdgeTest, Raid1SurvivesAllButOneMirror) {
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int i = 0; i < 3; ++i) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid1, 64}, members);
  raid.SetMemberFailed(0, true);
  raid.SetMemberFailed(2, true);
  Request req;
  req.lbn = 1000;
  req.block_count = 8;
  EXPECT_GT(raid.ServiceRequest(req, 0.0), 0.0);
  req.type = IoType::kWrite;
  EXPECT_GT(raid.ServiceRequest(req, 1.0), 0.0);
  // Only the surviving mirror moved data.
  EXPECT_GT(devices[1]->activity().requests, 0);
  EXPECT_EQ(devices[0]->activity().requests, 0);
  EXPECT_EQ(devices[2]->activity().requests, 0);
}

TEST(RaidEdgeTest, MultiRowRaid5WriteTouchesEveryRowsParity) {
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int i = 0; i < 5; ++i) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members);
  // Write spanning two stripe rows partially: 64 blocks starting mid-row.
  Request req;
  req.type = IoType::kWrite;
  req.lbn = 64 * 4 - 32;  // last half-unit of row 0 + first of row 1
  req.block_count = 64;
  (void)raid.ServiceRequest(req, 0.0);
  // Both rows' parity members wrote.
  const int p0 = raid.Raid5ParityMember(0);
  const int p1 = raid.Raid5ParityMember(1);
  EXPECT_NE(p0, p1);
  EXPECT_GT(devices[static_cast<size_t>(p0)]->activity().blocks_written, 0);
  EXPECT_GT(devices[static_cast<size_t>(p1)]->activity().blocks_written, 0);
}

TEST(MiniFsEdgeTest, JournalWrapsAround) {
  MemsDevice device;
  MiniFsConfig config;
  config.allocator.policy = AllocPolicy::kFirstFit;
  config.journal = true;
  config.journal_blocks = 8;  // tiny circular journal
  MiniFs fs(config, &device);
  double now = 0.0;
  for (int i = 0; i < 30; ++i) {  // 30 appends wrap the 8-block journal
    const double t = fs.Create(i, 4096, now);
    ASSERT_GT(t, 0.0);
    now += t;
  }
  EXPECT_EQ(fs.stats().files, 30);
}

TEST(MiniFsEdgeTest, EnospcSurfacesAsFailure) {
  MemsDevice device;
  MiniFsConfig config;
  config.allocator.capacity_blocks = 2000;
  MiniFs fs(config, &device);
  EXPECT_GT(fs.Create(1, 512 * 1024, 0.0), 0.0);   // 1024 blocks
  EXPECT_LT(fs.Create(2, 512 * 1024 * 2, 1.0), 0.0);  // cannot fit
  EXPECT_FALSE(fs.Exists(2));
  // Smaller file still fits.
  EXPECT_GT(fs.Create(3, 64 * 1024, 2.0), 0.0);
}

TEST(PowerEdgeTest, AdaptiveOnServerDiskStaysConservative) {
  // 25 s restarts: break-even is enormous; adaptive should almost never
  // spin down on a workload with sub-minute gaps.
  MemsDevice device;
  FcfsScheduler sched;
  std::vector<Request> reqs;
  Rng rng(3);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    Request req;
    req.id = i;
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    req.block_count = 8;
    now += 5000.0;  // 5 s gaps
    req.arrival_ms = now;
    reqs.push_back(req);
  }
  const PowerResult r = RunPowerExperiment(&device, &sched, reqs,
                                           DevicePowerParams::ServerDiskDefaults(),
                                           IdlePolicy::Adaptive(1000.0));
  // The learning transient doubles 1s -> 8s in ~3 regretted spin-downs,
  // then it never parks again.
  EXPECT_LE(r.restarts, 4);
}

TEST(DiskEdgeTest, FullDeviceSpanRead) {
  // A read crossing many zones and hundreds of tracks completes and
  // reports sane component times.
  DiskDevice device;
  Request req;
  req.lbn = device.CapacityBlocks() / 2 - 50000;
  req.block_count = 100000;  // ~50 MB
  ServiceBreakdown bd;
  const double ms = device.ServiceRequest(req, 0.0, &bd);
  EXPECT_GT(ms, 1000.0);  // tens of MB at ~25 MB/s
  EXPECT_NEAR(ms, bd.total_ms(), 1e-6);
  EXPECT_GT(bd.extra_ms, 0.0);  // many head switches
}

TEST(MemsEdgeTest, FullDeviceSpanRead) {
  MemsDevice device;
  Request req;
  req.lbn = 0;
  req.block_count = 1000000;  // ~512 MB
  const double ms = device.ServiceRequest(req, 0.0);
  const double mb_s = 1000000 * 512.0 / 1e6 / (ms / 1e3);
  EXPECT_GT(mb_s, 70.0);
  EXPECT_LT(mb_s, 79.7);
}

}  // namespace
}  // namespace mstk
