// The positioning-order contract (src/core/storage_device.h) that SPTF's
// walk relies on, on every device model and composite: each sampled
// request has a key >= 0, and its estimate equals, bit for bit, the one
// rebuilt from its key's leg, which it never undercuts. Each device is
// sampled fresh, after services and, for MEMS, after set_sled().
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/array/raid.h"
#include "src/cache/block_cache.h"
#include "src/cache/tiered_store.h"
#include "src/core/bus_device.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

// Samples `device` in 60 states: fresh, then after each of 59 services of
// random requests (reads and writes of 1-600 blocks), with set_sled() on
// `sled` (when given) every 20th step instead. 24 requests per state,
// each estimated at a random time ahead of the device clock.
void ExpectContract(StorageDevice* device, MemsDevice* sled = nullptr) {
  Rng rng(19);
  const int64_t capacity = device->CapacityBlocks();
  const auto random_request = [&] {
    Request req;
    req.block_count = static_cast<int32_t>(1 + rng.UniformInt(600));
    req.lbn = rng.UniformInt(capacity - req.block_count + 1);
    req.type = rng.Bernoulli(0.3) ? IoType::kWrite : IoType::kRead;
    return req;
  };
  double now = 0.0;
  for (int step = 0; step < 60; ++step) {
    if (sled != nullptr && step % 20 == 10) {
      const MemsParams& params = sled->params();
      const double y_span = params.rows_per_track() * params.row_height_m() / 2.0;
      sled->set_sled(SledState{rng.Uniform(-params.half_range_m(), params.half_range_m()),
                               rng.Uniform(-y_span, y_span),
                               (rng.UniformInt(3) - 1) * params.access_velocity()});
    } else if (step > 0) {
      now += device->ServiceRequest(random_request(), now) + rng.Uniform(0.0, 5.0);
    }
    for (int j = 0; j < 24; ++j) {
      const Request req = random_request();
      const double at_ms = now + rng.Uniform(0.0, 20.0);
      const int32_t key = device->PositioningKey(req);
      ASSERT_GE(key, 0) << "step " << step;
      const double leg_ms = device->KeyLegMs(key);
      const double estimate_ms = device->EstimatePositioningMs(req, at_ms);
      ASSERT_EQ(std::bit_cast<uint64_t>(device->EstimateGivenKeyLeg(req, leg_ms, at_ms)),
                std::bit_cast<uint64_t>(estimate_ms))
          << "step " << step << " request " << j;
      ASSERT_GE(estimate_ms, leg_ms) << "step " << step << " request " << j;
    }
  }
}

TEST(PositioningOrderContractTest, MemsBoundedForce) {
  MemsDevice device;
  ExpectContract(&device, &device);
}

TEST(PositioningOrderContractTest, MemsResonant) {
  MemsParams params;
  params.spring_model = SpringModel::kResonant;
  MemsDevice device(params);
  ExpectContract(&device, &device);
}

TEST(PositioningOrderContractTest, Disk) {
  DiskDevice device;
  ExpectContract(&device);
}

TEST(PositioningOrderContractTest, BusOverMems) {
  MemsDevice mems;
  BusDevice bus(BusParams::Ultra2(), &mems);
  ExpectContract(&bus, &mems);
}

TEST(PositioningOrderContractTest, BlockCacheOverMems) {
  MemsDevice mems;
  BlockCacheConfig config;
  config.capacity_blocks = 4096;
  config.write_policy = WritePolicy::kWriteBack;
  BlockCache cache(config, &mems);
  ExpectContract(&cache, &mems);
}

TEST(PositioningOrderContractTest, TieredStoreMemsOverDisk) {
  MemsDevice fast;
  DiskDevice slow;
  TieredStoreConfig config;
  config.fast_capacity_blocks = 8192;
  TieredStore tiered(config, &fast, &slow);
  ExpectContract(&tiered, &fast);
}

TEST(PositioningOrderContractTest, RaidArrayOfMems) {
  std::vector<MemsDevice> members(4);
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64},
                 {&members[0], &members[1], &members[2], &members[3]});
  ExpectContract(&raid, &members[1]);
}

}  // namespace
}  // namespace mstk
