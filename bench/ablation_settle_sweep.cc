// Ablation (§4.4, continuous version of Fig 8): SPTF's advantage over
// SSTF_LBN as a function of the settling time, at a fixed arrival rate.
//
// Expected shape: the SPTF/SSTF_LBN ratio shrinks toward 1 as settle grows
// (X seeks dominate, LBN distance approximates positioning well) and is
// largest at zero settle (Y seeks matter, LBN distance is blind to them).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  std::printf("Settling-time ablation: SPTF vs SSTF_LBN at matched load\n");
  std::printf("(arrival rate set per configuration so SSTF_LBN runs near saturation,\n"
              " where the scheduler choice matters; §4.4)\n");
  table.Row({"settle_const", "settle_ms", "rate_per_s", "SSTF_LBN_ms", "SPTF_ms",
             "SPTF_gain"});
  for (const double constants : {0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0}) {
    MemsParams params;
    params.settle_constants = constants;
    MemsDevice device(params);
    SstfLbnScheduler sstf;
    SptfScheduler sptf(&device);

    // Probe the FCFS-free service time at trivial load, then load the device
    // to ~135% of that service rate so queues are persistently deep.
    RandomWorkloadConfig probe;
    probe.arrival_rate_per_s = 10.0;
    probe.request_count = 1000;
    probe.capacity_blocks = device.CapacityBlocks();
    Rng probe_rng(70);
    const auto probe_reqs = GenerateRandomWorkload(probe, probe_rng);
    SstfLbnScheduler probe_sched;
    const double service_ms = Run(&device, &probe_sched, probe_reqs).MeanServiceMs();
    const double rate = 1.35 * 1000.0 / service_ms;

    RandomWorkloadConfig config;
    config.arrival_rate_per_s = rate;
    config.request_count = opts.Scale(10000);
    config.capacity_blocks = device.CapacityBlocks();
    Rng rng(71);
    const auto requests = GenerateRandomWorkload(config, rng);

    const double t_sstf = RunSchedulingCell(&device, &sstf, requests).mean_response_ms;
    const double t_sptf = RunSchedulingCell(&device, &sptf, requests).mean_response_ms;
    table.Row({Fmt("%.2f", constants), Fmt("%.3f", device.SettleMs()), Fmt("%.0f", rate),
               Fmt("%.3f", t_sstf), Fmt("%.3f", t_sptf),
               Fmt("%.1f%%", (1.0 - t_sptf / t_sstf) * 100.0)});
  }
  return 0;
}
