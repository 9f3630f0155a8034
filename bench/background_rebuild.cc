// §6.1.1 rebuild-in-operation: after a tip failure, the device rebuilds
// the lost tip region onto a spare from the surviving stripe members. The
// OS (or firmware) must schedule that traffic against foreground work.
// This bench runs a ~130 MB rebuild stream under a live random workload
// with three injection policies and reports the foreground latency impact
// and the rebuild completion time — the trade the lifetime model's
// `rebuild_hours` parameter abstracts.
//
// Expected shape: idle-only injection with a few ms of hysteresis leaves
// foreground latency nearly untouched while finishing the rebuild in
// seconds of device time at moderate load; eager injection finishes
// marginally sooner but taxes every foreground burst.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/background.h"
#include "src/core/metrics.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace {

using namespace mstk;

std::vector<Request> RebuildStream(int64_t total_blocks, int32_t chunk) {
  std::vector<Request> tasks;
  for (int64_t base = 0; base < total_blocks; base += chunk) {
    Request req;
    req.lbn = 3000000 + base;  // the co-striped region being read back
    req.block_count = chunk;
    tasks.push_back(req);
  }
  return tasks;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast | kSeed);
  const TableWriter table(opts.csv);
  const int64_t fg_count = opts.Scale(20000);
  const int64_t rebuild_blocks = opts.Scale(260000);  // ~130 MB of stripe reads

  std::printf("Tip-region rebuild under a 600 req/s foreground (MEMS, SPTF)\n");
  table.Row({"policy", "fg_mean_ms", "fg_p99_ms", "rebuild_done_s"});
  for (const double delay : {-1.0, 0.0, 2.0, 10.0}) {
    MemsDevice device;
    SptfScheduler sched(&device);
    MetricsCollector metrics;
    Simulator sim;
    Driver driver(&sim, &device, &sched, &metrics);

    SummaryStats fg_response;
    SampleSet fg_samples;
    driver.AddCompletionListener([&](const Request& req, TimeMs now) {
      if (!req.background) {
        fg_response.Add(now - req.arrival_ms);
        fg_samples.Add(now - req.arrival_ms);
      }
    });

    std::unique_ptr<BackgroundRunner> bg;
    if (delay >= 0.0) {
      bg = std::make_unique<BackgroundRunner>(&sim, &driver,
                                              RebuildStream(rebuild_blocks, 128), delay);
    }

    RandomWorkloadConfig config;
    config.arrival_rate_per_s = 600.0;
    config.request_count = fg_count;
    config.capacity_blocks = device.CapacityBlocks();
    Rng rng(17);
    const std::vector<Request> workload = GenerateRandomWorkload(config, rng);
    for (const Request& req : workload) {
      const Request* arrival = &req;
      sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
    }
    sim.Run();

    char label[32];
    if (delay < 0.0) {
      std::snprintf(label, sizeof(label), "no rebuild");
    } else {
      std::snprintf(label, sizeof(label), "idle+%.0fms", delay);
    }
    table.Row({label, Fmt("%.3f", fg_response.mean()),
               Fmt("%.3f", fg_samples.Quantile(0.99)),
               bg && bg->Done() ? Fmt("%.1f", bg->last_completion_ms() / 1000.0)
                                : "unfinished"});
  }

  std::printf("\nFault-driven rebuild: permanent failures during the run queue their\n");
  std::printf("own region rebuilds (idle-injected), instead of a pre-planned stream\n");
  table.Row({"policy", "fg_mean_ms", "remaps", "rebuild_ios", "rebuild_ms"});
  {
    FaultInjectorConfig faults;
    faults.permanent_rate = 0.002;
    faults.spares = 128;
    const ExperimentResult r =
        RunFaultedTrial(/*disk=*/false, SchedKind::kSptf, 600, fg_count, faults, opts.seed,
                        /*trace=*/{}, /*rebuild_idle_delay_ms=*/2.0);
    const FaultCounters& fc = r.metrics.fault();
    table.Row({"fault-driven", Fmt("%.3f", r.MeanResponseMs()),
               Fmt("%.0f", static_cast<double>(fc.remaps)),
               Fmt("%.0f", static_cast<double>(fc.rebuild_ios)),
               Fmt("%.3f", fc.rebuild_ms)});
  }
  return 0;
}
