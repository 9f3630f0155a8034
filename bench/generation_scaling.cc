// Generation scaling (extension; [SGNG00] trend projections): how the key
// figures of merit evolve across first/second/third-generation devices as
// bit cells shrink, channels speed up, and tip parallelism grows.
//
// Expected shape: capacity grows with bit density; streaming bandwidth
// grows with tips x rate; random 4 KB access improves more slowly (it is
// settle/seek bound, helped mainly by better damping); the advantage over
// the fixed disk baseline widens each generation.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

struct GenResult {
  double capacity_gb;
  double stream_mb_s;
  double rand4k_ms;
  double rmw4k_ms;
};

GenResult Measure(const MemsParams& params, int64_t samples) {
  MemsDevice device(params);
  GenResult r{};
  r.capacity_gb = static_cast<double>(params.capacity_bytes()) / 1e9;
  r.stream_mb_s = params.streaming_bytes_per_second() / 1e6;
  Rng rng(3);
  double total = 0.0;
  for (int64_t i = 0; i < samples; ++i) {
    Request req;
    req.block_count = 8;
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    total += device.ServiceRequest(req, 0.0);
  }
  r.rand4k_ms = total / static_cast<double>(samples);
  // 4 KB read-modify-write at mid-device.
  device.Reset();
  Request req;
  req.block_count = 8;
  req.lbn = device.CapacityBlocks() / 2 + device.geometry().params().slots_per_row();
  const double t0 = device.ServiceRequest(req, 0.0);
  const double t_read = device.ServiceRequest(req, t0);
  req.type = IoType::kWrite;
  const double t_write = device.ServiceRequest(req, t0 + t_read);
  r.rmw4k_ms = t_read + t_write;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t samples = opts.Scale(10000);

  std::printf("MEMS device generations (G2/G3 are scaling projections)\n");
  table.Row({"metric", "G1", "G2", "G3", "Atlas10K"});
  const GenResult g1 = Measure(MemsParams::FirstGeneration(), samples);
  const GenResult g2 = Measure(MemsParams::SecondGeneration(), samples);
  const GenResult g3 = Measure(MemsParams::ThirdGeneration(), samples);

  // Disk baseline for the latency rows.
  DiskDevice disk;
  Rng rng(3);
  double disk_total = 0.0;
  double now = 0.0;
  for (int64_t i = 0; i < samples; ++i) {
    Request req;
    req.block_count = 8;
    req.lbn = rng.UniformInt(disk.CapacityBlocks() - 8);
    const double t = disk.ServiceRequest(req, now);
    disk_total += t;
    now += t + 1.0;
  }
  const double disk_rand = disk_total / static_cast<double>(samples);

  table.Row({"capacity_GB", Fmt("%.2f", g1.capacity_gb), Fmt("%.2f", g2.capacity_gb),
             Fmt("%.2f", g3.capacity_gb), "8.68"});
  table.Row({"stream_MB_s", Fmt("%.1f", g1.stream_mb_s), Fmt("%.1f", g2.stream_mb_s),
             Fmt("%.1f", g3.stream_mb_s), "28.5-19.5"});
  table.Row({"rand4K_ms", Fmt("%.3f", g1.rand4k_ms), Fmt("%.3f", g2.rand4k_ms),
             Fmt("%.3f", g3.rand4k_ms), Fmt("%.3f", disk_rand)});
  table.Row({"rmw4K_ms", Fmt("%.3f", g1.rmw4k_ms), Fmt("%.3f", g2.rmw4k_ms),
             Fmt("%.3f", g3.rmw4k_ms), "~14"});
  return 0;
}
