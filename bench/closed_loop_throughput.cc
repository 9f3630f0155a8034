// Closed-loop complement to Figs 5/6 (§4.3 footnote): saturation
// throughput versus multiprogramming level, with the completion-arrival
// feedback that replayed traces lack. The scheduler ranking must match the
// open-loop figures: at deep queues SPTF sustains the highest throughput,
// FCFS gains nothing from queue depth.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/look.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

// 4 KB random reads in submission order; the closed loop stamps arrivals.
std::vector<Request> RandomReads(int64_t capacity, int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Request& req = requests[static_cast<size_t>(i)];
    req.id = i;
    req.block_count = 8;
    req.lbn = rng.UniformInt(capacity - 8);
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const TableWriter table(opts.csv);
  const int64_t count = opts.Scale(8000);

  for (const bool mems : {true, false}) {
    std::unique_ptr<StorageDevice> device;
    if (mems) {
      device = std::make_unique<MemsDevice>();
    } else {
      device = std::make_unique<DiskDevice>();
    }
    FcfsScheduler fcfs;
    SstfLbnScheduler sstf;
    ClookScheduler clook;
    LookScheduler look;
    SptfScheduler sptf(device.get());
    IoScheduler* scheds[] = {&fcfs, &sstf, &clook, &look, &sptf};
    const std::vector<Request> requests = RandomReads(device->CapacityBlocks(), count, 7);

    std::printf("%s: closed-loop 4 KB read throughput (req/s) vs MPL\n",
                mems ? "MEMS" : "Atlas 10K");
    table.Row({"mpl", "FCFS", "SSTF_LBN", "C-LOOK", "LOOK", "SPTF"});
    for (const int mpl : {1, 2, 4, 8, 16, 32, 64}) {
      std::vector<std::string> row = {Fmt("%.0f", mpl)};
      for (IoScheduler* sched : scheds) {
        RunConfig config;
        config.mode = ArrivalMode::kClosed;
        config.window = mpl;
        const ExperimentResult r = Run(device.get(), sched, requests, config);
        row.push_back(Fmt("%.0f", r.ThroughputPerSecond()));
      }
      table.Row(row);
    }
    std::printf("\n");
  }
  return 0;
}
