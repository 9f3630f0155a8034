// Trace pipeline: the library's workload tooling end to end — generate a
// synthetic trace, write it to disk, read it back, characterize it, scale
// it, and replay it against both device models under two schedulers.
// (The same flow works for imported DiskSim-format traces via
// ReadDiskSimTrace / `mstk_trace convert`.)
//
// Run: ./build/examples/trace_pipeline
#include <cstdio>
#include <filesystem>

#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/workload/analysis.h"
#include "src/workload/cello_like.h"
#include "src/workload/trace.h"

int main() {
  using namespace mstk;

  // 1. Generate and persist a workload.
  MemsDevice mems;
  CelloLikeConfig config;
  config.request_count = 15000;
  config.capacity_blocks = mems.CapacityBlocks();
  Rng rng(23);
  const auto generated = GenerateCelloLike(config, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pipeline.trace").string();
  if (!WriteTraceFile(path, generated)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }

  // 2. Load and characterize it.
  std::string error;
  auto trace = ReadTraceFile(path, &error);
  if (trace.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("trace written to %s\n\n%s\n", path.c_str(),
              FormatProfile(AnalyzeWorkload(trace)).c_str());

  // 3. Scale it up 8x and replay on both devices.
  trace = ScaleTrace(trace, 8.0);
  DiskDevice disk;
  const auto disk_trace = ClampTraceToCapacity(trace, disk.CapacityBlocks());

  std::printf("replay at 8x (mean response / p99, ms):\n");
  for (const bool use_mems : {true, false}) {
    StorageDevice* device = use_mems ? static_cast<StorageDevice*>(&mems)
                                     : static_cast<StorageDevice*>(&disk);
    const auto& requests = use_mems ? trace : disk_trace;
    FcfsScheduler fcfs;
    SptfScheduler sptf(device);
    for (IoScheduler* sched : {static_cast<IoScheduler*>(&fcfs),
                               static_cast<IoScheduler*>(&sptf)}) {
      ExperimentResult r = Run(device, sched, requests);
      std::printf("  %-5s %-6s %10.3f %10.3f\n", device->name(), sched->name(),
                  r.MeanResponseMs(), r.metrics.ResponseQuantile(0.99));
    }
  }
  std::remove(path.c_str());
  return 0;
}
