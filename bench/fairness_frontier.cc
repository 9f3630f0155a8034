// Fairness/performance frontier (extends Figs 5b/6b): plain SPTF buys its
// response-time lead with starvation (high sigma^2/mu^2, long p99); the
// aged variant [WGP94] walks the frontier between SPTF and C-LOOK as the
// age weight grows.
//
// Expected shape: small age weights keep ~all of SPTF's mean while cutting
// the tail; large weights converge toward FCFS-like fairness and lose the
// mean advantage.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  MemsDevice device;
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = 1700.0;  // deep queues
  config.request_count = opts.Scale(15000);
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(5);
  const auto requests = GenerateRandomWorkload(config, rng);

  std::printf("MEMS at 1700 req/s: the fairness/performance frontier\n");
  table.Row({"scheduler", "mean_ms", "scv", "p99_ms"});

  auto report = [&](IoScheduler* sched, const char* label) {
    ExperimentResult r = Run(&device, sched, requests);
    table.Row({label, Fmt("%.3f", r.MeanResponseMs()), Fmt("%.2f", r.ResponseScv()),
               Fmt("%.3f", r.metrics.ResponseQuantile(0.99))});
  };

  ClookScheduler clook;
  report(&clook, "C-LOOK");
  SptfScheduler sptf(&device);
  report(&sptf, "SPTF");
  for (const double weight : {0.001, 0.01, 0.05, 0.2}) {
    AgedSptfScheduler aged(&device, weight);
    char label[32];
    std::snprintf(label, sizeof(label), "ASPTF w=%.3f", weight);
    report(&aged, label);
  }
  return 0;
}
