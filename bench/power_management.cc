// §7 quantified: energy and latency under OS idle-mode policies for the
// MEMS device and two disk power profiles, on a bursty (cello-like)
// workload, plus the startup/availability comparison of §6.3.
//
// Expected shape: the MEMS device's ~0.5 ms restart makes the aggressive
// immediate-idle policy dominate (large energy savings, imperceptible
// latency). Disks need long timeouts: immediate spin-down costs energy
// (restart surges) and seconds of added latency.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/mems/mems_device.h"
#include "src/power/power_manager.h"
#include "src/sched/fcfs.h"
#include "src/sim/rng.h"
#include "src/workload/cello_like.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  MemsDevice device;
  FcfsScheduler sched;
  CelloLikeConfig config;
  config.request_count = opts.Scale(20000);
  config.capacity_blocks = device.CapacityBlocks();
  config.base_rate_per_s = 5.0;  // bursty, mostly-idle client workload
  Rng rng(42);
  const auto requests = GenerateCelloLike(config, rng);

  struct Profile {
    const char* name;
    DevicePowerParams params;
  };
  const Profile profiles[] = {
      {"MEMS", DevicePowerParams::MemsDefaults()},
      {"mobile-disk", DevicePowerParams::MobileDiskDefaults()},
      {"server-disk", DevicePowerParams::ServerDiskDefaults()},
  };
  const IdlePolicy policies[] = {
      IdlePolicy::AlwaysOn(),
      IdlePolicy::Timeout(10000.0),
      IdlePolicy::Timeout(1000.0),
      IdlePolicy::Timeout(100.0),
      IdlePolicy::Adaptive(100.0),
      IdlePolicy::Immediate(),
  };
  const char* policy_names[] = {"always-on", "timeout-10s", "timeout-1s",
                                "timeout-100ms", "adaptive", "immediate"};

  for (const Profile& profile : profiles) {
    std::printf("%s (restart %.1f ms):\n", profile.name, profile.params.restart_ms);
    table.Row({"policy", "energy_J", "mean_resp_ms", "restarts", "mean_mW"});
    for (size_t i = 0; i < std::size(policies); ++i) {
      const PowerResult r =
          RunPowerExperiment(&device, &sched, requests, profile.params, policies[i]);
      table.Row({policy_names[i], Fmt("%.1f", r.total_j()), Fmt("%.2f", r.mean_response_ms),
                 Fmt("%.0f", static_cast<double>(r.restarts)),
                 Fmt("%.0f", r.mean_power_mw())});
    }
    std::printf("\n");
  }

  // §6.3: availability after power-up / host crash.
  std::printf("Startup comparison (§6.3):\n");
  std::printf("  MEMS sled start: %.1f ms   (no spin-up, no power surge;\n"
              "  all devices in an array may start concurrently)\n",
              device.params().startup_ms);
  std::printf("  Atlas-class disk spin-up: 25000 ms, with a surge that forces\n"
              "  arrays to serialize spin-up (n disks -> up to n x 25 s)\n");

  // Flat power-per-bit (§7): ~90% of active power goes to sensing and
  // recording, so the media energy per MB is constant regardless of access
  // pattern — power optimization reduces to data-access minimization.
  std::printf("\nEnergy per MB moved vs request size (immediate idle):\n");
  table.Row({"request_kb", "media_J_per_MB", "total_marginal_J_per_MB"});
  for (const int32_t blocks : {8, 32, 128, 512, 2048}) {
    std::vector<Request> stream;
    Rng srng(5);
    for (int i = 0; i < 200; ++i) {
      Request req;
      req.id = i;
      req.lbn = srng.UniformInt(device.CapacityBlocks() - blocks);
      req.block_count = blocks;
      req.arrival_ms = i * 50.0;
      stream.push_back(req);
    }
    const PowerResult r = RunPowerExperiment(&device, &sched, stream,
                                             DevicePowerParams::MemsDefaults(),
                                             IdlePolicy::Immediate());
    const double mb = 200.0 * blocks * 512.0 / 1e6;
    table.Row({Fmt("%.0f", blocks / 2.0), Fmt("%.3f", r.media_j / mb),
               Fmt("%.3f", (r.media_j + r.active_j + r.startup_j) / mb)});
  }
  return 0;
}
