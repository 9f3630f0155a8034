// Storage-stack composition: because every layer implements StorageDevice,
// they stack — here a host block cache with readahead sits on top of a
// RAID-5 array of five MEMS-based storage devices, driven by an SPTF
// scheduler through the queueing driver. This is the shape of system the
// paper's conclusion points toward (devices + array redundancy + OS
// management working together).
//
// Run: ./build/examples/storage_stack
#include <cstdio>
#include <memory>
#include <vector>

#include "src/array/raid.h"
#include "src/cache/block_cache.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sim/simulator.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/workload/tpcc_like.h"

int main() {
  using namespace mstk;

  // Five MEMS devices under RAID-5, one failure away from data loss being
  // survivable; 64 MB of host cache with 32 KB readahead above.
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int i = 0; i < 5; ++i) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray array(RaidConfig{RaidLevel::kRaid5, 64}, members);
  BlockCacheConfig cache_config;
  cache_config.capacity_blocks = 131072;  // 64 MB
  cache_config.readahead_blocks = 64;     // 32 KB
  cache_config.write_policy = WritePolicy::kWriteBack;
  BlockCache stack(cache_config, &array);

  std::printf("stack: cache(64MB, wback) -> raid5(5 x mems) -> %lld blocks\n\n",
              static_cast<long long>(stack.CapacityBlocks()));

  TpccLikeConfig workload;
  workload.request_count = 20000;
  workload.capacity_blocks = stack.CapacityBlocks();
  workload.scale = 6.0;
  Rng rng(17);
  const auto requests = GenerateTpccLike(workload, rng);

  FcfsScheduler fcfs;
  SptfScheduler sptf(&stack);  // SPTF sees through the cache to the array
  for (IoScheduler* sched : {static_cast<IoScheduler*>(&fcfs),
                             static_cast<IoScheduler*>(&sptf)}) {
    ExperimentResult r = Run(&stack, sched, requests);
    std::printf("%-6s mean response %7.3f ms   p99 %7.3f ms   hit rate %.2f\n",
                sched->name(), r.MeanResponseMs(), r.metrics.ResponseQuantile(0.99),
                stack.stats().HitRate());
  }

  // Survive a member failure mid-run.
  std::printf("\nfailing member 2 and re-running (degraded RAID-5)...\n");
  array.SetMemberFailed(2, true);
  SptfScheduler sptf2(&stack);
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &stack, &sptf2, &metrics);
  for (const Request& req : requests) {
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
  }
  sim.Run();
  std::printf("degraded mean response %7.3f ms (reads reconstruct from 4 peers,\n"
              "writes rebuild parity) — no data lost, modest slowdown.\n",
              metrics.response_time().mean());
  return 0;
}
