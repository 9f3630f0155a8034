// Trace pipeline: the library's workload tooling end to end — generate a
// synthetic trace, write it to disk as MSTKTRACE, read it back,
// characterize it, time-warp it, and replay it against both device models
// under two schedulers. (DiskSim-format and old mstk ASCII traces enter the
// same flow through trace::ImportTraceFile / `mstk_trace convert`.)
//
// Run: ./build/examples/trace_pipeline
#include <cstdio>
#include <filesystem>

#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/trace/format.h"
#include "src/trace/transforms.h"
#include "src/workload/analysis.h"
#include "src/workload/cello_like.h"

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
  if (!WriteFileOrReport(path, trace::SerializeTrace(trace::FromRequests(generated)))) {
    return 1;
  }

  // 2. Load and characterize it.
  trace::ParsedTrace parsed;
  std::string error;
  if (!trace::ReadTraceFile(path, &parsed, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("trace written to %s\n\n%s\n", path.c_str(),
              FormatProfile(AnalyzeWorkload(trace::ToRequests(parsed))).c_str());

  // 3. Warp it to 8x the arrival rate and replay on both devices, each with
  //    the trace's footprint remapped onto its capacity.
  const std::vector<trace::TraceRecord> warped = trace::TimeWarp(parsed.records, 8.0);
  DiskDevice disk;

  std::printf("replay at 8x (mean response / p99, ms):\n");
  for (StorageDevice* device : {static_cast<StorageDevice*>(&mems),
                                static_cast<StorageDevice*>(&disk)}) {
    parsed.records =
        trace::RemapToCapacity(warped, device->CapacityBlocks(), trace::RemapMode::kScale);
    const std::vector<Request> requests = trace::ToRequests(parsed);
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
