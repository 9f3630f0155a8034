// §2.4.10 quantified: how much device knowledge does the scheduler need?
// The ladder: SSTF_LBN (LBNs only) -> SSTF_CYL (knows the LBN-to-cylinder
// mapping) -> SPTF (full mechanical model, i.e. drive-side scheduling).
//
// Expected shape (and finding): cylinder knowledge alone buys almost
// nothing over plain LBN distance — on a sequentially-optimized mapping the
// two are nearly the same ordering. The SPTF win comes from the *full*
// model: knowing that a same-cylinder candidate needs no settle and what
// the Y seek will cost. That argues for drive-side scheduling (§2.4.10)
// rather than host-side geometry hints.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_cyl.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/tpcc_like.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t count = opts.Scale(15000);

  std::printf("Scheduler knowledge ladder on MEMS, tpcc-like workload\n");
  for (const double settle : {1.0, 0.0}) {
    MemsParams params;
    params.settle_constants = settle;
    MemsDevice device(params);
    const MemsGeometry* geom = &device.geometry();
    SstfLbnScheduler sstf_lbn;
    SstfCylScheduler sstf_cyl(
        [geom](int64_t lbn) { return static_cast<int64_t>(geom->Decode(lbn).cylinder); });
    SptfScheduler sptf(&device);
    IoScheduler* scheds[] = {&sstf_lbn, &sstf_cyl, &sptf};

    std::printf("\nsettle constants = %.0f — mean response time (ms)\n", settle);
    table.Row({"scale", "SSTF_LBN", "SSTF_CYL", "SPTF"});
    for (const double scale : {4.0, 8.0, 10.0}) {
      TpccLikeConfig config;
      config.request_count = count;
      config.capacity_blocks = device.CapacityBlocks();
      config.scale = scale;
      Rng rng(37);
      const auto requests = GenerateTpccLike(config, rng);
      std::vector<std::string> row = {Fmt("%.0f", scale)};
      for (IoScheduler* sched : scheds) {
        row.push_back(
            Fmt("%.3f", RunSchedulingCell(&device, sched, requests).mean_response_ms));
      }
      table.Row(row);
    }
  }
  return 0;
}
