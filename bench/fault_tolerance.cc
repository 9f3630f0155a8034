// §6.1 quantified: (a) Monte-Carlo device-lifetime study — data-loss
// probability within 5 years versus ECC strength and spare-tip pool, with a
// disk-like no-redundancy point for contrast; (b) the performance cost of
// defect remapping styles — MEMS same-tip-sector sparing is free, disk
// slipping is nearly free, disk spare-region remapping breaks sequential
// runs badly.
//
// Expected shape: the no-redundancy device loses data within days at these
// failure rates; modest striping+ECC+spares drive 5-year loss probability
// to ~0. Spare-region remapping multiplies sequential read times; MEMS
// sparing leaves them untouched.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/lifetime.h"
#include "src/fault/remap.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast | kSeed | kFaultRate);
  const TableWriter table(opts.csv);

  std::printf("(a) 5-year data-loss probability vs ECC tips and spare pool\n");
  std::printf("    (6400 tips, 100-year per-tip MTBF => ~64 failures/year)\n");
  table.Row({"ecc_tips", "spares=0", "spares=64", "spares=256", "spares=1024"});
  const int trials = static_cast<int>(opts.Scale(2000));
  for (const int ecc : {0, 1, 2, 4, 8}) {
    std::vector<std::string> row = {Fmt("%.0f", ecc)};
    for (const int spares : {0, 64, 256, 1024}) {
      LifetimeParams p;
      p.ecc_tips = ecc;
      p.spare_tips = spares;
      p.trials = trials;
      Rng rng(600 + static_cast<uint64_t>(ecc * 10 + spares));
      const LifetimeResult r = RunLifetimeStudy(p, rng);
      row.push_back(Fmt("%.3f", r.data_loss_probability));
    }
    table.Row(row);
  }

  std::printf("\n    Disk-like reference (no striping, no spares): ");
  {
    LifetimeParams p;
    p.ecc_tips = 0;
    p.spare_tips = 0;
    p.trials = trials;
    Rng rng(1);
    const LifetimeResult r = RunLifetimeStudy(p, rng);
    std::printf("loss probability %.3f, mean time to loss %.3f years\n",
                r.data_loss_probability, r.mean_years_to_loss);
  }

  std::printf("\n(b) §6.1.1's capacity/fault-tolerance dial: adaptive sparing\n");
  std::printf("    (ECC 4, 8 initial spares, 25-year tip MTBF => ~256 failures/yr)\n");
  table.Row({"policy", "loss_prob", "capacity_lost_tips"});
  {
    LifetimeParams p;
    p.ecc_tips = 4;
    p.spare_tips = 8;
    p.tip_mtbf_years = 25.0;
    p.trials = trials;
    Rng rng_a(2);
    const LifetimeResult fixed = RunLifetimeStudy(p, rng_a);
    p.adaptive_sparing = true;
    Rng rng_b(2);
    const LifetimeResult adaptive = RunLifetimeStudy(p, rng_b);
    table.Row({"fixed-pool", Fmt("%.3f", fixed.data_loss_probability), "8"});
    table.Row({"convert-on-demand", Fmt("%.3f", adaptive.data_loss_probability),
               Fmt("%.0f", 8 + adaptive.mean_tips_converted)});
  }

  std::printf("\n(c) sequential 256 KB reads over a region with grown defects\n");
  std::printf("    (mean service time, ms; 200 defective blocks in a 1M-block region)\n");
  table.Row({"remap_style", "mean_ms", "vs_pristine"});
  MemsDevice device;
  Rng defect_rng(99);
  const int64_t region = 1000000;
  const int64_t spare_base = device.CapacityBlocks() - 10000;

  auto run_style = [&](RemapStyle style, int defects) {
    DefectRemapper remap(device.CapacityBlocks(), style, spare_base);
    Rng rng = defect_rng;  // same defect pattern for every style
    for (int i = 0; i < defects; ++i) {
      remap.MarkDefective(rng.UniformInt(region));
    }
    device.Reset();
    double total = 0.0;
    const int kReads = static_cast<int>(opts.Scale(1000));
    Rng read_rng(7);
    std::vector<IoExtent> extents;
    for (int i = 0; i < kReads; ++i) {
      const int64_t lbn = read_rng.UniformInt(region - 512);
      extents.clear();
      remap.Map(lbn, 512, &extents);
      for (const IoExtent& extent : extents) {
        Request req;
        req.lbn = extent.lbn;
        req.block_count = extent.blocks;
        total += device.ServiceRequest(req, 0.0);
      }
    }
    return total / opts.Scale(1000);
  };

  const double pristine = run_style(RemapStyle::kMemsSpareTip, 0);
  const double mems_spare = run_style(RemapStyle::kMemsSpareTip, 200);
  const double slip = run_style(RemapStyle::kDiskSlip, 200);
  const double spare_region = run_style(RemapStyle::kDiskSpareRegion, 200);
  table.Row({"pristine", Fmt("%.3f", pristine), "1.00x"});
  table.Row({"mems-spare-tip", Fmt("%.3f", mems_spare), Fmt("%.2fx", mems_spare / pristine)});
  table.Row({"disk-slip", Fmt("%.3f", slip), Fmt("%.2fx", slip / pristine)});
  table.Row({"disk-spare-region", Fmt("%.3f", spare_region),
             Fmt("%.2fx", spare_region / pristine)});

  std::printf("\n(d) online injection & recovery in the live I/O path\n");
  std::printf("    (SPTF @ 600 req/s; transient rate via --fault-rate, default 0.02;\n");
  std::printf("    permanent 0.2%%/request absorbed by spare tips, rebuilds on idle)\n");
  table.Row({"metric", "value"});
  {
    FaultInjectorConfig faults;
    faults.transient_rate = opts.fault_rate > 0.0 ? opts.fault_rate : 0.02;
    faults.permanent_rate = 0.002;
    faults.lost_completion_rate = 0.001;
    faults.spares = 64;
    const int64_t count = opts.Scale(5000);
    const ExperimentResult clean =
        RunRandomSchedTrial(SchedKind::kSptf, 600, count, opts.seed);
    const ExperimentResult faulted =
        RunFaultedTrial(/*disk=*/false, SchedKind::kSptf, 600, count, faults, opts.seed);
    const FaultCounters& fc = faulted.metrics.fault();
    table.Row({"mean_response_ms(clean)", Fmt("%.3f", clean.MeanResponseMs())});
    table.Row({"mean_response_ms(faulted)", Fmt("%.3f", faulted.MeanResponseMs())});
    table.Row({"mean_fault_phase_ms", Fmt("%.4f", faulted.metrics.phase(Phase::kFault).mean())});
    table.Row({"transient_errors", Fmt("%.0f", static_cast<double>(fc.transient_errors))});
    table.Row({"timeouts", Fmt("%.0f", static_cast<double>(fc.timeouts))});
    table.Row({"retries", Fmt("%.0f", static_cast<double>(fc.retries))});
    table.Row({"permanent_faults", Fmt("%.0f", static_cast<double>(fc.permanent_faults))});
    table.Row({"remaps", Fmt("%.0f", static_cast<double>(fc.remaps))});
    table.Row({"failed_requests", Fmt("%.0f", static_cast<double>(fc.failed_requests))});
    table.Row({"rebuild_ios", Fmt("%.0f", static_cast<double>(fc.rebuild_ios))});
    table.Row({"rebuild_ms", Fmt("%.3f", fc.rebuild_ms)});
    table.Row({"degraded_ms", Fmt("%.3f", fc.degraded_ms)});
  }
  return 0;
}
