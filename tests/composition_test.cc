// Cross-module composition tests: the decorators and substrates must
// stack in any sensible order without breaking driver invariants.
#include <gtest/gtest.h>

#include <memory>

#include "src/array/raid.h"
#include "src/cache/block_cache.h"
#include "src/core/background.h"
#include "src/core/bus_device.h"
#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/merging.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

TEST(CompositionTest, CacheOverBusOverRaidOverMems) {
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int i = 0; i < 4; ++i) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members);
  BusDevice bus(BusParams::Ultra160(), &raid);
  BlockCacheConfig cache_config;
  cache_config.capacity_blocks = 65536;
  cache_config.readahead_blocks = 64;
  BlockCache stack(cache_config, &bus);

  RandomWorkloadConfig config;
  config.arrival_rate_per_s = 300.0;
  config.request_count = 2000;
  config.capacity_blocks = stack.CapacityBlocks();
  Rng rng(3);
  const auto requests = GenerateRandomWorkload(config, rng);

  SstfLbnScheduler inner;
  MergingScheduler sched(&inner);
  const ExperimentResult result = mstk::Run(&stack, &sched, requests);
  EXPECT_EQ(result.metrics.completed(), 2000);
  EXPECT_GT(result.MeanResponseMs(), 0.0);
  // Every member device did real work.
  for (const auto& device : devices) {
    EXPECT_GT(device->activity().requests, 0);
  }
}

TEST(CompositionTest, BackgroundWorkOnCachedDevice) {
  MemsDevice raw;
  BlockCacheConfig cache_config;
  cache_config.capacity_blocks = 16384;
  BlockCache cache(cache_config, &raw);

  SptfScheduler sched(&cache);
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &cache, &sched, &metrics);
  std::vector<Request> tasks;
  for (int i = 0; i < 50; ++i) {
    Request req;
    req.lbn = 500000 + i * 64;
    req.block_count = 64;
    tasks.push_back(req);
  }
  BackgroundRunner bg(&sim, &driver, tasks, 1.0);

  Rng rng(5);
  std::vector<Request> workload(200);
  for (int i = 0; i < 200; ++i) {
    Request& req = workload[static_cast<size_t>(i)];
    req.id = i;
    req.lbn = rng.UniformInt(cache.CapacityBlocks() - 8);
    req.block_count = 8;
    req.arrival_ms = i * 5.0;
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
  }
  sim.Run();
  EXPECT_TRUE(bg.Done());
  EXPECT_EQ(metrics.completed(), 250);
}

TEST(CompositionTest, ResetCascadesThroughStack) {
  MemsDevice raw;
  BusDevice bus(BusParams::Ultra2(), &raw);
  BlockCacheConfig cache_config;
  BlockCache cache(cache_config, &bus);
  Request req;
  req.lbn = 1000;
  req.block_count = 8;
  (void)cache.ServiceRequest(req, 0.0);
  EXPECT_GT(raw.activity().requests, 0);
  cache.Reset();
  EXPECT_EQ(raw.activity().requests, 0);
  EXPECT_EQ(bus.activity().requests, 0);
  EXPECT_EQ(cache.resident_blocks(), 0);
}

}  // namespace
}  // namespace mstk
