#include "src/mems/mems_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/sim/rng.h"

namespace mstk {
namespace {

Request MakeRead(int64_t lbn, int32_t blocks) {
  Request req;
  req.type = IoType::kRead;
  req.lbn = lbn;
  req.block_count = blocks;
  return req;
}

TEST(MemsDeviceTest, FourKbTransferMatchesTableTwo) {
  MemsDevice device;
  ServiceBreakdown breakdown;
  (void)device.ServiceRequest(MakeRead(0, 8), 0.0, &breakdown);
  // 8 LBNs fit in one 20-LBN row pass: 90 bits / 700 kbit/s = 0.1286 ms
  // (Table 2 reports 0.13 ms for the 8-sector read).
  EXPECT_NEAR(breakdown.transfer_ms, 0.1286, 0.001);
  EXPECT_EQ(breakdown.extra_ms, 0.0);
}

TEST(MemsDeviceTest, TrackLengthTransferMatchesTableTwo) {
  MemsDevice device;
  ServiceBreakdown breakdown;
  // 334 sectors (the Atlas 10K's longest track) = ceil(334/20) = 17 rows.
  (void)device.ServiceRequest(MakeRead(0, 334), 0.0, &breakdown);
  EXPECT_NEAR(breakdown.transfer_ms, 17 * 0.12857, 0.001);  // Table 2: 2.19 ms
  EXPECT_EQ(breakdown.extra_ms, 0.0);                       // fits in one track
}

TEST(MemsDeviceTest, ReadModifyWriteRepositionIsTurnaround) {
  MemsDevice device;
  // Move to mid-device, mid-row (the turnaround is position-dependent;
  // Table 2's 0.07 ms is the central value) and read 8 blocks.
  const int64_t lbn = device.geometry().Encode(MemsAddress{1250, 2, 13, 0});
  (void)device.ServiceRequest(MakeRead(lbn, 8), 0.0);
  // Re-accessing the same blocks: reposition should be a bare turnaround
  // (Table 2: 0.07 ms), not a rotational wait.
  ServiceBreakdown breakdown;
  Request write = MakeRead(lbn, 8);
  write.type = IoType::kWrite;
  (void)device.ServiceRequest(write, 10.0, &breakdown);
  EXPECT_NEAR(breakdown.positioning_ms, 0.07, 0.02);
  EXPECT_NEAR(breakdown.positioning_ms + breakdown.transfer_ms, 0.20, 0.03);
}

TEST(MemsDeviceTest, PositioningIsMaxOfXAndY) {
  MemsDevice device;
  // Prime the state: read at cylinder 0, row 0.
  (void)device.ServiceRequest(MakeRead(0, 8), 0.0);
  const MemsGeometry& geom = device.geometry();
  // Far X, same rows: positioning ~= X seek + settle.
  const int64_t far_x = geom.Encode(MemsAddress{2400, 0, 0, 0});
  ServiceBreakdown far_x_bd;
  MemsDevice probe1 = device;
  (void)probe1.ServiceRequest(MakeRead(far_x, 8), 0.0, &far_x_bd);
  const double tx = probe1.CylinderSeekMs(0, 2400) + probe1.SettleMs();
  EXPECT_NEAR(far_x_bd.positioning_ms, tx, 0.02);
  // Same cylinder, far Y: positioning == pure Y seek, well below tx.
  const int64_t far_y = geom.Encode(MemsAddress{0, 0, 26, 0});
  ServiceBreakdown far_y_bd;
  MemsDevice probe2 = device;
  (void)probe2.ServiceRequest(MakeRead(far_y, 8), 0.0, &far_y_bd);
  EXPECT_LT(far_y_bd.positioning_ms, tx);
}

TEST(MemsDeviceTest, EstimateMatchesServiceBreakdown) {
  // The scalar estimate computes every leg directly; ServiceRequest and the
  // positioning order's EstimateGivenKeyLeg take their Y legs from the
  // device's Y-leg table, and their first X seek from the X-seek memo. All
  // must agree bit for bit, from row-boundary states (after a service) and
  // from states off every boundary (after Reset or set_sled). Requests of
  // up to 600 blocks cross tracks (540 blocks fill one), so later segments
  // fill the table too. The first probes of every step start on the same
  // few cylinders, so the memo is read again after the sled has moved; and
  // each serviced request's key leg is taken first, as SPTF's walk does,
  // so the service reads the memo.
  MemsDevice device;
  const MemsParams& params = device.params();
  const double y_span = params.rows_per_track() * params.row_height_m() / 2.0;
  const double v_access = params.access_velocity();
  const int32_t kRevisited[] = {0, 17, 1250, 2499};
  Rng rng(7);
  auto request_from = [&](int64_t first, int64_t span) {
    const int64_t lbn = first + rng.UniformInt(span);
    const int32_t blocks = static_cast<int32_t>(
        1 + rng.UniformInt(std::min<int64_t>(600, device.CapacityBlocks() - lbn)));
    return MakeRead(lbn, blocks);
  };
  auto random_request = [&] { return request_from(0, device.CapacityBlocks()); };
  for (int i = 0; i < 500; ++i) {
    if (i % 100 == 40) {
      device.Reset();
    } else if (i % 100 == 70) {
      const double vy = (rng.UniformInt(3) - 1) * v_access;
      device.set_sled(SledState{params.cylinder_x_m(static_cast<int>(
                                    rng.UniformInt(params.cylinders()))),
                                rng.Uniform(-y_span, y_span), vy});
    }
    for (int j = 0; j < 32; ++j) {
      // The order's contract: the same bits from the key leg, never below it.
      const Request probe =
          j < 4 ? request_from(kRevisited[j] * params.blocks_per_cylinder(),
                               params.blocks_per_cylinder())
                : random_request();
      const double scalar_ms = device.EstimatePositioningMs(probe, 0.0);
      const double leg_ms = device.KeyLegMs(device.PositioningKey(probe));
      ASSERT_EQ(std::bit_cast<uint64_t>(device.EstimateGivenKeyLeg(probe, leg_ms, 0.0)),
                std::bit_cast<uint64_t>(scalar_ms))
          << "step " << i << " request " << j;
      ASSERT_GE(scalar_ms, leg_ms);
    }
    const Request req = random_request();
    const double estimate = device.EstimatePositioningMs(req, 0.0);
    (void)device.KeyLegMs(device.PositioningKey(req));
    ServiceBreakdown breakdown;
    (void)device.ServiceRequest(req, 0.0, &breakdown);
    ASSERT_EQ(estimate, breakdown.positioning_ms) << "step " << i;
  }
}

TEST(MemsDeviceTest, StateKeyIsTheCylinderTheSledRestsOn) {
  MemsDevice device;
  const MemsGeometry& geom = device.geometry();
  EXPECT_EQ(device.StateKey(), StorageDevice::kNoKey);  // fresh: off every cylinder
  const int64_t lbn = geom.Encode(MemsAddress{700, 3, 10, 0});
  EXPECT_EQ(device.PositioningKey(MakeRead(lbn, 8)), 700);
  (void)device.ServiceRequest(MakeRead(lbn, 8), 0.0);
  EXPECT_EQ(device.StateKey(), 700);
  EXPECT_EQ(device.KeyLegMs(700), 0.0);
  EXPECT_DOUBLE_EQ(device.KeyLegMs(701), device.CylinderSeekMs(700, 701) + device.SettleMs());
  // A request that runs from the last track of cylinder 700 into 701 is
  // keyed by its first cylinder and leaves the sled on its last.
  const int64_t last_track = geom.Encode(MemsAddress{700, 4, 0, 0});
  const Request crossing = MakeRead(last_track, 600);
  EXPECT_EQ(device.PositioningKey(crossing), 700);
  (void)device.ServiceRequest(crossing, 0.0);
  EXPECT_EQ(device.StateKey(), 701);
  device.set_sled(SledState{device.params().cylinder_x_m(5), 0.0, 0.0});
  EXPECT_EQ(device.StateKey(), StorageDevice::kNoKey);
  (void)device.ServiceRequest(MakeRead(lbn, 8), 0.0);
  device.Reset();
  EXPECT_EQ(device.StateKey(), StorageDevice::kNoKey);
}

TEST(MemsDeviceTest, ZeroBlockRequestDies) {
  // last_lbn() of a zero-block request is lbn - 1, which passes a bare
  // capacity check, but there is no segment to position to.
  MemsDevice device;
  const Request empty = MakeRead(1000, 0);
  EXPECT_DEATH((void)device.ServiceRequest(empty, 0.0), "no blocks");
  EXPECT_DEATH((void)device.EstimatePositioningMs(empty, 0.0), "no blocks");
  EXPECT_DEATH((void)device.PositioningKey(empty), "no blocks");
}

TEST(MemsDeviceTest, TrackCrossingChargesTurnaround) {
  MemsDevice device;
  // 540 blocks fill exactly one track; 560 cross into the next.
  ServiceBreakdown one_track;
  device.Reset();
  (void)device.ServiceRequest(MakeRead(0, 540), 0.0, &one_track);
  EXPECT_EQ(one_track.extra_ms, 0.0);
  ServiceBreakdown two_tracks;
  device.Reset();
  (void)device.ServiceRequest(MakeRead(0, 560), 0.0, &two_tracks);
  EXPECT_GT(two_tracks.extra_ms, 0.0);
  // Serpentine mapping: the track switch costs only a turnaround (near the
  // media edge the spring makes it cheap), not a full-stroke Y reposition.
  EXPECT_LT(two_tracks.extra_ms, 0.1);
}

TEST(MemsDeviceTest, LargeSequentialBandwidthNearStreamingRate) {
  MemsDevice device;
  // 10 cylinders' worth of data: 27000 blocks = 13.5 MB.
  const int32_t blocks = 27000;
  const double ms = device.ServiceRequest(MakeRead(0, blocks), 0.0);
  const double mb_per_s = blocks * 512.0 / 1e6 / (ms / 1e3);
  EXPECT_GT(mb_per_s, 70.0);  // §5.2: 79.6 MB/s peak minus switch overheads
  EXPECT_LT(mb_per_s, 79.7);
}

TEST(MemsDeviceTest, LargeTransferInsensitiveToXDistance) {
  // §5.2 / Fig 10: a 256 KB transfer's service time grows only ~10-20%
  // across the full X span.
  MemsDevice device;
  const MemsGeometry& geom = device.geometry();
  // Park at cylinder 0 (request at far left).
  (void)device.ServiceRequest(MakeRead(0, 8), 0.0);
  MemsDevice near = device;
  MemsDevice far = device;
  const double t_near =
      near.ServiceRequest(MakeRead(geom.Encode(MemsAddress{1, 0, 0, 0}), 512), 0.0);
  const double t_far =
      far.ServiceRequest(MakeRead(geom.Encode(MemsAddress{2400, 0, 0, 0}), 512), 0.0);
  EXPECT_GT(t_far, t_near);
  EXPECT_LT(t_far, t_near * 1.35);
}

TEST(MemsDeviceTest, EdgeSubregionSlowerThanCenterSubregion) {
  // Fig 9's diagonal: requests confined to an outer subregion average
  // higher service times than the centermost subregion.
  MemsParams params;
  MemsDevice device(params);
  const MemsGeometry& geom = device.geometry();
  Rng rng(11);
  auto subregion_mean = [&](int32_t c_lo, int32_t row_lo) {
    device.Reset();
    // Park inside the subregion first.
    device.ServiceRequest(
        MakeRead(geom.Encode(MemsAddress{c_lo, 0, row_lo, 0}), 8), 0.0);
    double total = 0.0;
    const int kN = 2000;
    for (int i = 0; i < kN; ++i) {
      const int32_t cyl = c_lo + static_cast<int32_t>(rng.UniformInt(400));
      const int32_t row = row_lo + static_cast<int32_t>(rng.UniformInt(4));
      const int64_t lbn = geom.Encode(MemsAddress{cyl, 0, row, 0});
      total += device.ServiceRequest(MakeRead(lbn, 8), 0.0);
    }
    return total / kN;
  };
  const double center = subregion_mean(1050, 11);
  const double corner = subregion_mean(0, 0);
  EXPECT_GT(corner, center * 1.03);  // paper: 10-20% spread
  EXPECT_LT(corner, center * 1.35);
}

TEST(MemsDeviceTest, ZeroSettleSpeedsUpXSeeks) {
  MemsParams fast;
  fast.settle_constants = 0.0;
  MemsDevice with_settle;
  MemsDevice no_settle(fast);
  const int64_t lbn = with_settle.geometry().Encode(MemsAddress{2000, 0, 5, 0});
  const double t1 = with_settle.ServiceRequest(MakeRead(lbn, 8), 0.0);
  const double t2 = no_settle.ServiceRequest(MakeRead(lbn, 8), 0.0);
  EXPECT_NEAR(t1 - t2, with_settle.SettleMs(), 0.02);
}

TEST(MemsDeviceTest, ResetRestoresInitialState) {
  MemsDevice device;
  (void)device.ServiceRequest(MakeRead(123456, 64), 0.0);
  EXPECT_GT(device.activity().busy_ms, 0.0);
  device.Reset();
  EXPECT_EQ(device.activity().busy_ms, 0.0);
  EXPECT_EQ(device.activity().requests, 0);
  EXPECT_EQ(device.sled().x, 0.0);
  EXPECT_EQ(device.sled().y, 0.0);
  EXPECT_EQ(device.sled().vy, 0.0);
}

TEST(MemsDeviceTest, ActivityCountersAccumulate) {
  MemsDevice device;
  (void)device.ServiceRequest(MakeRead(0, 8), 0.0);
  Request w = MakeRead(5000, 16);
  w.type = IoType::kWrite;
  (void)device.ServiceRequest(w, 1.0);
  EXPECT_EQ(device.activity().requests, 2);
  EXPECT_EQ(device.activity().blocks_read, 8);
  EXPECT_EQ(device.activity().blocks_written, 16);
  EXPECT_NEAR(device.activity().busy_ms,
              device.activity().positioning_ms + device.activity().transfer_ms, 1e-9);
}

TEST(MemsDeviceTest, ServiceTimeAlwaysPositiveAndBounded) {
  MemsDevice device;
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const int32_t blocks = 1 + static_cast<int32_t>(rng.UniformInt(64));
    const Request req = MakeRead(rng.UniformInt(device.CapacityBlocks() - blocks), blocks);
    const double ms = device.ServiceRequest(req, 0.0);
    EXPECT_GT(ms, 0.0);
    // Worst case: full X seek + settle + a few turnarounds + transfer.
    EXPECT_LT(ms, 5.0);
  }
}

TEST(MemsDeviceTest, PhaseBreakdownTilesServiceTime) {
  // The fine-grained phases must account for every microsecond the coarse
  // model charges: sum(phases) == returned service time, for random
  // requests including multi-segment transfers and seek-error retries.
  MemsDevice device;
  device.EnableSeekErrors(0.2, /*seed=*/7);
  Rng rng(29);
  double now = 0.0;
  bool saw_turnaround = false;
  bool saw_overhead = false;
  for (int i = 0; i < 2000; ++i) {
    const int32_t blocks = 1 + static_cast<int32_t>(rng.UniformInt(200));
    const Request req = MakeRead(rng.UniformInt(device.CapacityBlocks() - blocks), blocks);
    ServiceBreakdown bd;
    const double ms = device.ServiceRequest(req, now, &bd);
    EXPECT_NEAR(bd.phases.service_ms(), ms, 1e-9) << "request " << i;
    EXPECT_NEAR(bd.phases.service_ms(), bd.total_ms(), 1e-9);
    EXPECT_DOUBLE_EQ(bd.phases[Phase::kQueue], 0.0);  // device doesn't queue
    for (int p = 0; p < kPhaseCount; ++p) {
      EXPECT_GE(bd.phases.phase_ms[p], 0.0);
    }
    saw_turnaround |= bd.phases[Phase::kTurnaround] > 0.0;
    saw_overhead |= bd.phases[Phase::kOverhead] > 0.0;
    now += ms;
  }
  EXPECT_TRUE(saw_turnaround);  // multi-segment requests occurred
  EXPECT_TRUE(saw_overhead);    // seek-error retries occurred
}

}  // namespace
}  // namespace mstk
