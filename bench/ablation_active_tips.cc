// §7 ablation: "the OS can manage device power dissipation by controlling
// both request size and the maximum number of active tips." Sweeps the
// simultaneously-active tip count: bandwidth and access time trade directly
// against the media power draw (≈1 mW per active tip while transferring).
//
// Expected shape: streaming bandwidth scales linearly with active tips;
// random 4 KB latency degrades only mildly (positioning dominates) until
// the row no longer covers a request; media power scales linearly — so
// throttling tips is an effective power knob with modest latency cost.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  std::printf("Active-tip throttling (6400 total tips, 1 mW/tip media draw)\n");
  table.Row({"active_tips", "stream_MB_s", "rand4K_ms", "rand64K_ms", "media_mW"});
  for (const int tips : {320, 640, 1280, 3200, 6400}) {
    MemsParams params;
    params.active_tips = tips;
    MemsDevice device(params);
    Rng rng(3);
    const int64_t samples = opts.Scale(10000);
    double total4k = 0.0;
    double total64k = 0.0;
    for (int64_t i = 0; i < samples; ++i) {
      Request req;
      req.block_count = 8;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 128);
      total4k += device.ServiceRequest(req, 0.0);
      req.block_count = 128;
      total64k += device.ServiceRequest(req, 0.0);
    }
    table.Row({Fmt("%.0f", tips),
               Fmt("%.1f", params.streaming_bytes_per_second() / 1e6),
               Fmt("%.3f", total4k / static_cast<double>(samples)),
               Fmt("%.3f", total64k / static_cast<double>(samples)),
               Fmt("%.0f", static_cast<double>(tips))});
  }

  std::printf("\nSeek-error retries (§6.1.3): mean 4 KB service time (ms)\n");
  table.Row({"error_rate", "MEMS", "disk"});
  for (const double rate : {0.0, 0.001, 0.01, 0.05}) {
    MemsDevice mems;
    mems.EnableSeekErrors(rate, 1);
    DiskDevice disk;
    disk.EnableSeekErrors(rate, 1);
    Rng rng(5);
    const int64_t samples = opts.Scale(10000);
    double mems_total = 0.0;
    double disk_total = 0.0;
    double now = 0.0;
    for (int64_t i = 0; i < samples; ++i) {
      Request req;
      req.block_count = 8;
      req.lbn = rng.UniformInt(mems.CapacityBlocks() - 8);
      mems_total += mems.ServiceRequest(req, now);
      Request dreq = req;
      dreq.lbn = rng.UniformInt(disk.CapacityBlocks() - 8);
      disk_total += disk.ServiceRequest(dreq, now);
      now += 25.0;
    }
    table.Row({Fmt("%.3f", rate), Fmt("%.4f", mems_total / static_cast<double>(samples)),
               Fmt("%.4f", disk_total / static_cast<double>(samples))});
  }
  return 0;
}
