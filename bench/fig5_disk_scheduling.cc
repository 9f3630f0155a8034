// Figure 5: scheduling algorithms on the Atlas 10K disk, random workload.
// (a) average response time and (b) squared coefficient of variation of
// response time, versus request arrival rate, for FCFS / SSTF_LBN / C-LOOK /
// SPTF.
//
// Expected shape (paper): FCFS saturates first; SSTF_LBN beats C-LOOK on
// response time; SPTF beats everything; C-LOOK has the best (lowest)
// sigma^2/mu^2, SSTF_LBN and SPTF the worst.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
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

  DiskDevice device;
  FcfsScheduler fcfs;
  SstfLbnScheduler sstf;
  ClookScheduler clook;
  SptfScheduler sptf(&device);
  IoScheduler* scheds[] = {&fcfs, &sstf, &clook, &sptf};

  const std::vector<double> rates = {20, 40, 60, 80, 100, 120, 140, 160, 180, 200};
  const int64_t count = opts.Scale(10000);

  std::printf("Figure 5(a): Atlas 10K, random workload — mean response time (ms)\n");
  table.Row({"rate_per_s", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
  std::vector<std::vector<SchedulingCell>> cells(rates.size());
  for (size_t r = 0; r < rates.size(); ++r) {
    RandomWorkloadConfig config;
    config.arrival_rate_per_s = rates[r];
    config.request_count = count;
    config.capacity_blocks = device.CapacityBlocks();
    Rng rng(1000 + static_cast<uint64_t>(r));
    const auto requests = GenerateRandomWorkload(config, rng);
    std::vector<std::string> row = {Fmt("%.0f", rates[r])};
    for (IoScheduler* sched : scheds) {
      const SchedulingCell cell = RunSchedulingCell(&device, sched, requests);
      cells[r].push_back(cell);
      row.push_back(Fmt("%.2f", cell.mean_response_ms));
    }
    table.Row(row);
  }

  std::printf("\nFigure 5(b): Atlas 10K, random workload — sigma^2/mu^2 of response time\n");
  table.Row({"rate_per_s", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
  for (size_t r = 0; r < rates.size(); ++r) {
    std::vector<std::string> row = {Fmt("%.0f", rates[r])};
    for (const SchedulingCell& cell : cells[r]) {
      row.push_back(Fmt("%.2f", cell.scv));
    }
    table.Row(row);
  }
  return 0;
}
