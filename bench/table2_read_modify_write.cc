// Table 2: read-modify-write times for 4 KB (8-sector) and track-length
// (334-sector) transfers, Atlas 10K vs MEMS-based storage (§6.2).
//
// Expected values (paper):
//               Atlas 10K        MEMS
//   # sectors     8     334      8     334
//   read        0.14   6.00    0.13   2.19
//   reposition  5.98   0.00    0.07   0.07
//   write       0.14   6.00    0.13   2.19
//   total       6.26  12.00    0.33   4.45
//
// Also prints the turnaround-time distribution note from the Table 2
// caption (min / mean / max over sled positions).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

struct RmwResult {
  double read_ms;
  double reposition_ms;
  double write_ms;
  double total() const { return read_ms + reposition_ms + write_ms; }
};

RmwResult MeasureRmw(StorageDevice* device, int64_t lbn, int32_t sectors) {
  device->Reset();
  Request req;
  req.lbn = lbn;
  req.block_count = sectors;
  req.type = IoType::kRead;
  // Approach the target once so the initial seek does not pollute the
  // read-phase number, then measure read / reposition+write.
  ServiceBreakdown approach;
  const double t0 = device->ServiceRequest(req, 0.0, &approach);
  ServiceBreakdown read_bd;
  const double t1 = device->ServiceRequest(req, t0, &read_bd);
  req.type = IoType::kWrite;
  ServiceBreakdown write_bd;
  device->ServiceRequest(req, t0 + t1, &write_bd);
  RmwResult r;
  r.read_ms = read_bd.transfer_ms + read_bd.extra_ms;
  r.reposition_ms = write_bd.positioning_ms;
  r.write_ms = write_bd.transfer_ms + write_bd.extra_ms;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv);
  const TableWriter table(opts.csv);

  DiskDevice atlas;
  MemsDevice mems;
  // Mid-device targets (Table 2's values are representative positions; the
  // MEMS turnaround varies with sled offset, see the caption note below).
  const RmwResult disk8 = MeasureRmw(&atlas, 1002, 8);
  const RmwResult disk334 = MeasureRmw(&atlas, 0, 334);
  const int64_t mems_mid = mems.geometry().Encode(MemsAddress{1250, 2, 13, 0});
  const RmwResult mems8 = MeasureRmw(&mems, mems_mid, 8);
  const RmwResult mems334 =
      MeasureRmw(&mems, mems.geometry().Encode(MemsAddress{1250, 2, 5, 0}), 334);

  std::printf("Table 2: read-modify-write times (ms)\n");
  table.Row({"", "Atlas-8", "Atlas-334", "MEMS-8", "MEMS-334"});
  table.Row({"read", Fmt("%.2f", disk8.read_ms), Fmt("%.2f", disk334.read_ms),
             Fmt("%.2f", mems8.read_ms), Fmt("%.2f", mems334.read_ms)});
  table.Row({"reposition", Fmt("%.2f", disk8.reposition_ms),
             Fmt("%.2f", disk334.reposition_ms), Fmt("%.2f", mems8.reposition_ms),
             Fmt("%.2f", mems334.reposition_ms)});
  table.Row({"write", Fmt("%.2f", disk8.write_ms), Fmt("%.2f", disk334.write_ms),
             Fmt("%.2f", mems8.write_ms), Fmt("%.2f", mems334.write_ms)});
  table.Row({"total", Fmt("%.2f", disk8.total()), Fmt("%.2f", disk334.total()),
             Fmt("%.2f", mems8.total()), Fmt("%.2f", mems334.total())});

  // Turnaround distribution over sled positions and directions (caption:
  // "0.036 ms-1.11 ms with 0.063 ms average" in the paper's spring model;
  // our bounded-force spring gives the same mean with a tighter max —
  // see DESIGN.md).
  const double v = mems.params().access_velocity();
  const SledKinematics& kin = mems.kinematics();
  double min_t = 1e9;
  double max_t = 0.0;
  double sum = 0.0;
  int n = 0;
  const double y_lo = mems.geometry().RowBoundaryY(0);
  const double y_hi = mems.geometry().RowBoundaryY(mems.params().rows_per_track());
  for (double y = y_lo; y <= y_hi; y += (y_hi - y_lo) / 200.0) {
    for (const double dir : {+1.0, -1.0}) {
      const double t = SecondsToMs(kin.TurnaroundSeconds(y, dir * v));
      min_t = std::min(min_t, t);
      max_t = std::max(max_t, t);
      sum += t;
      ++n;
    }
  }
  std::printf("\nMEMS turnaround over sled positions: min %.3f ms, mean %.3f ms, "
              "max %.3f ms\n(paper caption: 0.036-1.11 ms, 0.063 ms average)\n",
              min_t, sum / n, max_t);
  return 0;
}
