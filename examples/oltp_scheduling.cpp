// OLTP scenario (§4.3): a database server whose working set — random index
// page reads/writes plus a sequential log — sits on a single MEMS-based
// storage device. Shows why the scheduler choice matters as load scales,
// and why SPTF (which knows the true positioning time, settle included)
// pulls far ahead of LBN-based scheduling on exactly this workload.
//
// Run: ./build/examples/oltp_scheduling
#include <cstdio>

#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/tpcc_like.h"

int main() {
  using namespace mstk;

  MemsDevice device;
  FcfsScheduler fcfs;
  SstfLbnScheduler sstf;
  ClookScheduler clook;
  SptfScheduler sptf(&device);
  IoScheduler* scheds[] = {&fcfs, &sstf, &clook, &sptf};

  std::printf("OLTP on MEMS-based storage: response time (ms) vs load\n\n");
  std::printf("%-8s %10s %10s %10s %10s %12s\n", "scale", "FCFS", "SSTF_LBN", "C-LOOK",
              "SPTF", "queue@SPTF");
  for (const double scale : {2.0, 6.0, 8.0, 10.0}) {
    TpccLikeConfig config;
    config.request_count = 15000;
    config.capacity_blocks = device.CapacityBlocks();
    config.scale = scale;
    Rng rng(11);
    const auto requests = GenerateTpccLike(config, rng);

    double results[4] = {};
    double sptf_depth = 0.0;
    for (int i = 0; i < 4; ++i) {
      const ExperimentResult r = Run(&device, scheds[i], requests);
      results[i] = r.MeanResponseMs();
      if (i == 3) {
        sptf_depth = r.metrics.queue_depth().mean();
      }
    }
    std::printf("%-8.0f %10.2f %10.2f %10.2f %10.2f %12.1f\n", scale, results[0],
                results[1], results[2], results[3], sptf_depth);
  }

  std::printf(
      "\nAt high load the pending queue holds many requests whose LBNs are\n"
      "nearly identical (index pages of the same 1 GB database). LBN-based\n"
      "schedulers cannot tell which of those neighbors is mechanically cheap;\n"
      "every wrong pick pays a full X settle (0.22 ms). SPTF asks the device\n"
      "model and routinely finds a same-cylinder request that needs only a\n"
      "turnaround (0.04-0.24 ms) — the effect §4.3 reports for TPC-C.\n");
  return 0;
}
