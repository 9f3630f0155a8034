// Ablation (§5.1 / Table 2 caption): how the spring factor shapes seek and
// turnaround behavior. Sweeps the spring factor and reports X seek times at
// the center vs edge, the turnaround distribution, and the average random
// 4 KB access time.
//
// Expected shape: a stronger spring slows edge seeks and outward-reversing
// turnarounds while barely moving center behavior; the mean random access
// time degrades gently.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  std::printf("Spring-factor ablation\n");
  table.Row({"spring", "seek8um_ctr", "seek8um_edge", "turn_min", "turn_mean",
             "turn_max", "rand4k_ms"});
  for (const double spring : {0.0, 0.25, 0.5, 0.75, 0.9}) {
    MemsParams params;
    params.spring_factor = spring;
    MemsDevice device(params);
    const SledKinematics& kin = device.kinematics();
    const double v = params.access_velocity();

    const double ctr = SecondsToMs(kin.SeekSeconds(-4e-6, 4e-6));
    const double edge = SecondsToMs(kin.SeekSeconds(42e-6, 50e-6));

    double tmin = 1e9;
    double tmax = 0.0;
    double tsum = 0.0;
    int n = 0;
    const double y_lo = device.geometry().RowBoundaryY(0);
    const double y_hi = device.geometry().RowBoundaryY(params.rows_per_track());
    for (double y = y_lo; y <= y_hi; y += (y_hi - y_lo) / 100.0) {
      for (const double dir : {+1.0, -1.0}) {
        const double t = SecondsToMs(kin.TurnaroundSeconds(y, dir * v));
        tmin = std::min(tmin, t);
        tmax = std::max(tmax, t);
        tsum += t;
        ++n;
      }
    }

    Rng rng(3);
    double total = 0.0;
    const int64_t samples = opts.Scale(10000);
    for (int64_t i = 0; i < samples; ++i) {
      Request req;
      req.block_count = 8;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
      total += device.ServiceRequest(req, 0.0);
    }

    table.Row({Fmt("%.2f", spring), Fmt("%.4f", ctr), Fmt("%.4f", edge),
               Fmt("%.4f", tmin), Fmt("%.4f", tsum / n), Fmt("%.4f", tmax),
               Fmt("%.4f", total / static_cast<double>(samples))});
  }

  // Spring parameterization comparison (see DESIGN.md / EXPERIMENTS.md):
  // the bounded-force reading vs the [GSGN00] resonant-frequency reading.
  std::printf("\nSpring model comparison (Table 2 caption: 0.036-1.11 ms, avg 0.063)\n");
  table.Row({"model", "turn_min", "turn_uniform_mean", "turn_max", "rand4k_ms"});
  for (const SpringModel model : {SpringModel::kBoundedForce, SpringModel::kResonant}) {
    MemsParams params;
    params.spring_model = model;
    MemsDevice device(params);
    const SledKinematics& kin = device.kinematics();
    const double v = params.access_velocity();
    double tmin = 1e9;
    double tmax = 0.0;
    double tsum = 0.0;
    int n = 0;
    const double y_lo = device.geometry().RowBoundaryY(0);
    const double y_hi = device.geometry().RowBoundaryY(params.rows_per_track());
    for (double y = y_lo; y <= y_hi; y += (y_hi - y_lo) / 200.0) {
      for (const double dir : {+1.0, -1.0}) {
        const double t = SecondsToMs(kin.TurnaroundSeconds(y, dir * v));
        tmin = std::min(tmin, t);
        tmax = std::max(tmax, t);
        tsum += t;
        ++n;
      }
    }
    Rng rng(3);
    double total = 0.0;
    const int64_t samples = opts.Scale(10000);
    for (int64_t i = 0; i < samples; ++i) {
      Request req;
      req.block_count = 8;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
      total += device.ServiceRequest(req, 0.0);
    }
    table.Row({model == SpringModel::kBoundedForce ? "bounded-force" : "resonant",
               Fmt("%.4f", tmin), Fmt("%.4f", tsum / n), Fmt("%.4f", tmax),
               Fmt("%.4f", total / static_cast<double>(samples))});
  }
  return 0;
}
