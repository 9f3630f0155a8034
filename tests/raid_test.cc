#include "src/array/raid.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mems/mems_device.h"
#include "src/disk/disk_device.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

Request MakeReq(int64_t lbn, int32_t blocks, IoType type = IoType::kRead) {
  Request req;
  req.lbn = lbn;
  req.block_count = blocks;
  req.type = type;
  return req;
}

class MemsArrayFixture : public ::testing::Test {
 protected:
  MemsArrayFixture() {
    for (int i = 0; i < 5; ++i) {
      devices_.push_back(std::make_unique<MemsDevice>());
      members_.push_back(devices_.back().get());
    }
  }

  std::vector<std::unique_ptr<MemsDevice>> devices_;
  std::vector<StorageDevice*> members_;
};

TEST_F(MemsArrayFixture, CapacityByLevel) {
  const int64_t c = members_[0]->CapacityBlocks() -
                    members_[0]->CapacityBlocks() % 64;
  RaidArray r0(RaidConfig{RaidLevel::kRaid0, 64}, members_);
  RaidArray r1(RaidConfig{RaidLevel::kRaid1, 64}, members_);
  RaidArray r5(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  EXPECT_EQ(r0.CapacityBlocks(), 5 * c);
  EXPECT_EQ(r1.CapacityBlocks(), c);
  EXPECT_EQ(r5.CapacityBlocks(), 4 * c);
}

TEST_F(MemsArrayFixture, Raid0MappingRoundRobin) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid0, 64}, members_);
  for (int64_t u = 0; u < 20; ++u) {
    const auto mb = raid.MapRaid0(u * 64);
    EXPECT_EQ(mb.member, u % 5);
    EXPECT_EQ(mb.lbn, (u / 5) * 64);
  }
  // Within-unit offsets preserved.
  EXPECT_EQ(raid.MapRaid0(7).lbn, 7);
  EXPECT_EQ(raid.MapRaid0(64 + 7).member, 1);
  EXPECT_EQ(raid.MapRaid0(64 + 7).lbn, 7);
}

TEST_F(MemsArrayFixture, Raid5ParityRotatesAndDataAvoidsParity) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  // Parity member cycles over all members.
  std::vector<int> seen(5, 0);
  for (int64_t row = 0; row < 10; ++row) {
    const int p = raid.Raid5ParityMember(row);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 5);
    ++seen[static_cast<size_t>(p)];
    // Data in this row never maps to the parity member.
    for (int64_t col = 0; col < 4; ++col) {
      const auto mb = raid.MapRaid5Data((row * 4 + col) * 64);
      EXPECT_NE(mb.member, p) << "row " << row << " col " << col;
      EXPECT_EQ(mb.lbn, row * 64);
    }
  }
  for (const int count : seen) {
    EXPECT_EQ(count, 2);
  }
}

TEST_F(MemsArrayFixture, Raid0LargeReadScalesDown) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid0, 64}, members_);
  MemsDevice solo;
  const int32_t blocks = 64 * 5 * 8;  // 8 full stripe rows, 1.25 MB
  const double t_solo = solo.ServiceRequest(MakeReq(0, blocks), 0.0);
  const double t_array = raid.ServiceRequest(MakeReq(0, blocks), 0.0);
  // Each member moves 1/5th of the data.
  EXPECT_LT(t_array, t_solo / 3.0);
}

TEST_F(MemsArrayFixture, Raid1WriteGoesEverywhereReadPicksOne) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid1, 64}, members_);
  (void)raid.ServiceRequest(MakeReq(5000, 8, IoType::kWrite), 0.0);
  for (const auto& device : devices_) {
    EXPECT_EQ(device->activity().blocks_written, 8);
  }
  (void)raid.ServiceRequest(MakeReq(5000, 8, IoType::kRead), 10.0);
  int64_t total_read = 0;
  for (const auto& device : devices_) {
    total_read += device->activity().blocks_read;
  }
  EXPECT_EQ(total_read, 8);  // exactly one mirror serviced the read
}

TEST_F(MemsArrayFixture, Raid5SmallWriteIsFourOps) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  (void)raid.ServiceRequest(MakeReq(0, 8, IoType::kWrite), 0.0);
  // Old data + old parity read, new data + new parity written: 8 blocks
  // read on each of 2 members, 8 written on the same 2.
  int64_t reads = 0;
  int64_t writes = 0;
  int involved = 0;
  for (const auto& device : devices_) {
    reads += device->activity().blocks_read;
    writes += device->activity().blocks_written;
    involved += device->activity().requests > 0;
  }
  EXPECT_EQ(reads, 16);
  EXPECT_EQ(writes, 16);
  EXPECT_EQ(involved, 2);
}

TEST_F(MemsArrayFixture, Raid5FullStripeWriteSkipsReads) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  (void)raid.ServiceRequest(MakeReq(0, 64 * 4, IoType::kWrite), 0.0);
  int64_t reads = 0;
  int64_t writes = 0;
  for (const auto& device : devices_) {
    reads += device->activity().blocks_read;
    writes += device->activity().blocks_written;
  }
  EXPECT_EQ(reads, 0);
  EXPECT_EQ(writes, 64 * 5);  // 4 data units + 1 parity unit
}

TEST_F(MemsArrayFixture, Raid5DegradedReadReconstructs) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  // Find the member holding array block 0 and fail it.
  const auto mb = raid.MapRaid5Data(0);
  raid.SetMemberFailed(mb.member, true);
  const double t = raid.ServiceRequest(MakeReq(0, 8), 0.0);
  EXPECT_GT(t, 0.0);
  // All four survivors serviced a read.
  int readers = 0;
  for (int m = 0; m < 5; ++m) {
    if (m == mb.member) {
      EXPECT_EQ(devices_[static_cast<size_t>(m)]->activity().requests, 0);
    } else {
      readers += devices_[static_cast<size_t>(m)]->activity().blocks_read > 0;
    }
  }
  EXPECT_EQ(readers, 4);
}

TEST_F(MemsArrayFixture, Raid5DegradedWriteRebuildsParity) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  const auto mb = raid.MapRaid5Data(0);
  raid.SetMemberFailed(mb.member, true);
  (void)raid.ServiceRequest(MakeReq(0, 8, IoType::kWrite), 0.0);
  // The failed member is untouched; parity is still written.
  EXPECT_EQ(devices_[static_cast<size_t>(mb.member)]->activity().requests, 0);
  const int parity = raid.Raid5ParityMember(0);
  EXPECT_GT(devices_[static_cast<size_t>(parity)]->activity().blocks_written, 0);
}

TEST_F(MemsArrayFixture, ResetClearsFailuresAndMembers) {
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members_);
  raid.SetMemberFailed(1, true);
  (void)raid.ServiceRequest(MakeReq(0, 8), 0.0);
  raid.Reset();
  EXPECT_FALSE(raid.member_failed(1));
  EXPECT_EQ(raid.activity().requests, 0);
  for (const auto& device : devices_) {
    EXPECT_EQ(device->activity().requests, 0);
  }
}

TEST(RaidContrastTest, MemsRaid5SmallWriteFarCheaperThanDisk) {
  // §6.2's claim, end to end: the RAID-5 small-write penalty on a MEMS
  // array is dominated by a turnaround, on a disk array by a full rotation.
  std::vector<std::unique_ptr<MemsDevice>> mems;
  std::vector<std::unique_ptr<DiskDevice>> disks;
  std::vector<StorageDevice*> mems_members;
  std::vector<StorageDevice*> disk_members;
  for (int i = 0; i < 5; ++i) {
    mems.push_back(std::make_unique<MemsDevice>());
    mems_members.push_back(mems.back().get());
    disks.push_back(std::make_unique<DiskDevice>());
    disk_members.push_back(disks.back().get());
  }
  RaidArray mems_raid(RaidConfig{RaidLevel::kRaid5, 64}, mems_members);
  RaidArray disk_raid(RaidConfig{RaidLevel::kRaid5, 64}, disk_members);

  Rng rng(13);
  double mems_total = 0.0;
  double disk_total = 0.0;
  double now = 0.0;
  for (int i = 0; i < 200; ++i) {
    const int64_t lbn =
        rng.UniformInt(mems_raid.CapacityBlocks() / 8 - 1) * 8;
    mems_total += mems_raid.ServiceRequest(MakeReq(lbn, 8, IoType::kWrite), now);
    disk_total +=
        disk_raid.ServiceRequest(MakeReq(lbn % disk_raid.CapacityBlocks(), 8,
                                         IoType::kWrite),
                                 now);
    now += 50.0;
  }
  // Disk: ~seek + rotation + rev (RMW) ~ 15+ ms. MEMS: ~seek + turnaround
  // + 2 transfers ~ 1 ms.
  EXPECT_GT(disk_total / mems_total, 8.0);
}

// Regression: PlanRead's coalescing used to merge any physically adjacent
// ops per member, including a reconstruct read (row-tagged, barrier-bearing)
// with an untagged plain read next to it — the merged op inherited the
// first op's row and the barrier accounting went wrong. With n=3 and member
// 1 failed, reading array [128, 320) puts a plain read of member 0's lbns
// [64, 128) (unit 2) right next to a reconstruct read of [128, 192)
// (unit 4's row): adjacent, different rows, must stay separate.
TEST(RaidRegressionTest, CoalescingKeepsReconstructReadsSeparate) {
  const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, 64}, 3);
  const std::vector<bool> failed = {false, true, false};
  std::vector<RaidPlanner::MemberOp> plan;
  planner.PlanRead(MakeReq(128, 192), failed, 0.0, nullptr, &plan);

  // Members 0 and 2 each see the plain read and the reconstruct read as two
  // distinct ops with their own row tags; nothing targets the failed member.
  for (const int member : {0, 2}) {
    int plain = 0;
    int reconstruct = 0;
    for (const auto& op : plan) {
      if (op.member != member) {
        continue;
      }
      if (op.row < 0) {
        ++plain;
        EXPECT_EQ(op.lbn, 64);
        EXPECT_EQ(op.blocks, 64);
      } else {
        ++reconstruct;
        EXPECT_EQ(op.row, 2);
        EXPECT_EQ(op.lbn, 128);
        EXPECT_EQ(op.blocks, 64);
      }
    }
    EXPECT_EQ(plain, 1) << "member " << member;
    EXPECT_EQ(reconstruct, 1) << "member " << member;
  }
  for (const auto& op : plan) {
    EXPECT_NE(op.member, 1);
  }
}

// Minimal device that records the `at_ms` each positioning probe is made at.
class ProbeRecordingDevice : public StorageDevice {
 public:
  const char* name() const override { return "probe"; }
  int64_t CapacityBlocks() const override { return 1 << 20; }
  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                                      ServiceBreakdown* breakdown = nullptr) override {
    (void)start_ms;
    (void)breakdown;
    activity_.requests += 1;
    if (req.is_read()) {
      activity_.blocks_read += req.block_count;
    } else {
      activity_.blocks_written += req.block_count;
    }
    return 0.1;
  }
  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override {
    (void)req;
    probed_at_ms_.push_back(at_ms);
    return 0.05;
  }
  void Reset() override {
    probed_at_ms_.clear();
    activity_ = DeviceActivity{};
  }

  mutable std::vector<TimeMs> probed_at_ms_;
};

// Regression: RAID-1 mirror selection probed every mirror at time 0.0
// regardless of when the read was actually issued, so time-dependent device
// models (disks, whose rotational position depends on the clock) were ranked
// by stale state. The request's start time must reach the probe.
TEST(RaidRegressionTest, MirrorSelectionProbesAtRequestTime) {
  std::vector<ProbeRecordingDevice> probes(3);
  std::vector<StorageDevice*> members;
  for (auto& p : probes) {
    members.push_back(&p);
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid1, 64}, members);
  (void)raid.ServiceRequest(MakeReq(4096, 8), 123.0);
  for (const auto& p : probes) {
    ASSERT_EQ(p.probed_at_ms_.size(), 1u);
    EXPECT_EQ(p.probed_at_ms_[0], 123.0);
  }
}

// Regression: a second RAID-5 failure used to be accepted silently and only
// blew up later, deep inside a degraded-read plan. The transition itself now
// surfaces the unrecoverable state.
TEST(RaidRegressionTest, OverToleranceFailureSurfacesAsFailedHealth) {
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int i = 0; i < 5; ++i) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members);
  EXPECT_EQ(raid.health(), ArrayHealth::kHealthy);
  raid.SetMemberFailed(0, true);
  EXPECT_EQ(raid.health(), ArrayHealth::kDegraded);
  raid.SetMemberFailed(1, true);  // over tolerance: no crash, state surfaces
  EXPECT_EQ(raid.health(), ArrayHealth::kFailed);
  raid.SetMemberFailed(1, false);  // repair brings it back within tolerance
  EXPECT_EQ(raid.health(), ArrayHealth::kDegraded);
  raid.Reset();
  EXPECT_EQ(raid.health(), ArrayHealth::kHealthy);
}

// Regression: a degraded partial write (reconstruct-write mode) recomputes
// parity from *full* surviving units, but used to write only the request's
// span of the parity unit — leaving the rest of the unit inconsistent with
// what it was computed from. The whole parity unit must be written.
TEST(RaidRegressionTest, ReconstructWriteWritesFullParityUnit) {
  const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, 64}, 3);
  // Member 0 holds unit 0 of row 0 (parity for row 0 is member 2); fail it
  // and write a 16-block span inside that unit.
  std::vector<bool> failed = {true, false, false};
  std::vector<RaidPlanner::MemberOp> plan;
  planner.PlanWrite(MakeReq(8, 16, IoType::kWrite), failed, &plan);

  int64_t parity_write_blocks = -1;
  int64_t parity_write_lbn = -1;
  int full_unit_reads = 0;
  for (const auto& op : plan) {
    EXPECT_NE(op.member, 0) << "op issued against the failed member";
    if (op.member == 2 && op.type == IoType::kWrite) {
      parity_write_lbn = op.lbn;
      parity_write_blocks = op.blocks;
      EXPECT_TRUE(op.phase2);
    }
    if (op.type == IoType::kRead && op.lbn == 0 && op.blocks == 64) {
      ++full_unit_reads;
    }
  }
  // Parity is written whole, and both the surviving data unit (member 1) and
  // the old parity (member 2 — the failed unit is only partially overwritten,
  // so its untouched blocks live only in the old parity) are read in full.
  EXPECT_EQ(parity_write_lbn, 0);
  EXPECT_EQ(parity_write_blocks, 64);
  EXPECT_EQ(full_unit_reads, 2);
}

TEST(RaidValidationTest, EstimateNeverExceedsService) {
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int i = 0; i < 4; ++i) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const Request req = MakeReq(rng.UniformInt(raid.CapacityBlocks() - 8), 8);
    const double estimate = raid.EstimatePositioningMs(req, 0.0);
    const double service = raid.ServiceRequest(req, 0.0);
    EXPECT_LE(estimate, service + 1e-9);
  }
}

}  // namespace
}  // namespace mstk
