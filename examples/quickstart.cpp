// Quickstart: simulate a random workload against a MEMS-based storage
// device and a conventional disk, under two schedulers, and print the
// headline metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

int main() {
  using namespace mstk;

  MemsDevice mems;
  DiskDevice disk;
  std::printf("devices: %s (%lld blocks), %s (%lld blocks)\n\n", mems.name(),
              static_cast<long long>(mems.CapacityBlocks()), disk.name(),
              static_cast<long long>(disk.CapacityBlocks()));

  for (StorageDevice* device : {static_cast<StorageDevice*>(&mems),
                                static_cast<StorageDevice*>(&disk)}) {
    // The paper's "random" workload (§3): Poisson arrivals, 67% reads,
    // exponential 4 KB sizes, uniform locations. Rate chosen well below
    // either device's saturation point.
    RandomWorkloadConfig config;
    config.arrival_rate_per_s = 50.0;
    config.request_count = 5000;
    config.capacity_blocks = device->CapacityBlocks();
    Rng rng(42);
    const auto requests = GenerateRandomWorkload(config, rng);

    FcfsScheduler fcfs;
    SptfScheduler sptf(device);
    for (IoScheduler* sched : {static_cast<IoScheduler*>(&fcfs),
                               static_cast<IoScheduler*>(&sptf)}) {
      const ExperimentResult result = Run(device, sched, requests);
      std::printf("%-5s + %-5s  mean response %7.3f ms   mean service %6.3f ms   "
                  "sigma^2/mu^2 %5.2f\n",
                  device->name(), sched->name(), result.MeanResponseMs(),
                  result.MeanServiceMs(), result.ResponseScv());
    }
    std::printf("\n");
  }
  std::printf("Note how the MEMS device services the same workload an order of\n"
              "magnitude faster, and how much less it depends on scheduling.\n");
  return 0;
}
