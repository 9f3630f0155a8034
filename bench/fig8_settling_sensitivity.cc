// Figure 8: interaction of SPTF and settling time (§4.4). Repeats the
// Fig 6(a) sweep with zero and with two settling time constants (default
// is one).
//
// Expected shape (paper): with 2 constants the X seek dominates and
// SSTF_LBN nearly matches SPTF; with 0 constants Y seeks matter and SPTF
// pulls far ahead of every LBN-based algorithm.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t count = opts.Scale(10000);

  for (const double constants : {0.0, 2.0}) {
    MemsParams params;
    params.settle_constants = constants;
    MemsDevice device(params);
    FcfsScheduler fcfs;
    SstfLbnScheduler sstf;
    ClookScheduler clook;
    SptfScheduler sptf(&device);
    IoScheduler* scheds[] = {&fcfs, &sstf, &clook, &sptf};

    std::printf("Figure 8 (%.0f settling time constants): mean response time (ms)\n",
                constants);
    table.Row({"rate_per_s", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
    // Zero settle makes the device faster; sweep a wider rate range there.
    const double top = constants == 0.0 ? 3400.0 : 1800.0;
    for (double rate = 200.0; rate <= top + 1.0; rate += (top - 200.0) / 8.0) {
      RandomWorkloadConfig config;
      config.arrival_rate_per_s = rate;
      config.request_count = count;
      config.capacity_blocks = device.CapacityBlocks();
      Rng rng(4000 + static_cast<uint64_t>(rate));
      const auto requests = GenerateRandomWorkload(config, rng);
      std::vector<std::string> row = {Fmt("%.0f", rate)};
      for (IoScheduler* sched : scheds) {
        row.push_back(
            Fmt("%.3f", RunSchedulingCell(&device, sched, requests).mean_response_ms));
      }
      table.Row(row);
    }
    std::printf("\n");
  }
  return 0;
}
