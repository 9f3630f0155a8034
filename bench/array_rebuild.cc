// Managed-array rebuild under load (§6.2 extended): an ArrayManager drives a
// full per-device driver stack for every member, loses a device mid-run, and
// rebuilds it onto a hot spare while the foreground workload keeps arriving.
// The table contrasts the two rebuild policies at several stripe widths:
// idle-injected rebuild chunks barely touch foreground latency but finish
// later; greedy chunks finish the copy-back sooner at a foreground latency
// cost. The lifecycle columns are virtual-time stamps of the superblock's
// degraded -> rebuilding -> resync -> optimal transitions.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/array/array_experiment.h"

namespace {

using namespace mstk;

double Metric(const TrialMetrics& metrics, const char* name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) {
      return value;
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast | kSeed);
  const TableWriter table(opts.csv);
  const int64_t requests = opts.fast ? 300 : 1200;

  std::printf("ArrayManager rebuild: RAID-5 over N MEMS devices + 2 hot spares, SPTF\n");
  std::printf("per member; device 0 fails at t=5ms; %lld foreground requests\n\n",
              static_cast<long long>(requests));
  table.Row({"width/policy", "fg_mean_ms", "rebuild_ios", "rebuild_done_ms", "degraded_ms",
             "rebuilding_ms", "resync_ms", "optimal_ms"});

  for (const int width : {8, 16, 24}) {
    for (const RebuildPolicy policy : {RebuildPolicy::kIdle, RebuildPolicy::kGreedy}) {
      ArrayRunConfig config;
      config.manager.raid = RaidConfig{RaidLevel::kRaid5, 64};
      config.manager.active_members = width;
      config.manager.member_extent_blocks = 8192;
      config.manager.rebuild_policy = policy;
      config.manager.rebuild_chunk_blocks = 512;
      config.spares = 2;
      config.workload.arrival_rate_per_s = 2000.0;
      config.workload.request_count = requests;
      config.fail_device = 0;
      config.fail_at_ms = 5.0;

      const TrialMetrics m = RunArrayRebuildTrial(config, opts.seed);
      char label[32];
      std::snprintf(label, sizeof(label), "w%d/%s", width, RebuildPolicyName(policy));
      table.Row({label,
                 Fmt("%.3f", Metric(m, "mean_response_ms")),
                 Fmt("%.0f", Metric(m, "rebuild_ios")),
                 Fmt("%.1f", Metric(m, "array_resync_at_ms")),
                 Fmt("%.1f", Metric(m, "array_degraded_at_ms")),
                 Fmt("%.1f", Metric(m, "array_rebuilding_at_ms")),
                 Fmt("%.1f", Metric(m, "array_resync_at_ms")),
                 Fmt("%.1f", Metric(m, "array_optimal_again_ms"))});
    }
  }

  std::printf("\nWith per-member fault injection on top (permanent_rate 0.004): members\n");
  std::printf("that exhaust their spare tips are failed out through the driver's\n");
  std::printf("degraded sink and rebuilt onto the next spare.\n");
  table.Row({"width/policy", "fg_mean_ms", "perm_faults", "remaps", "rebuild_ios",
             "final_state"});
  for (const RebuildPolicy policy : {RebuildPolicy::kIdle, RebuildPolicy::kGreedy}) {
    ArrayRunConfig config;
    config.manager.raid = RaidConfig{RaidLevel::kRaid5, 64};
    config.manager.active_members = 16;
    config.manager.member_extent_blocks = 8192;
    config.manager.rebuild_policy = policy;
    config.spares = 2;
    config.workload.arrival_rate_per_s = 2000.0;
    config.workload.request_count = requests;
    config.fail_at_ms = 5.0;
    config.transient_rate = 0.01;
    config.permanent_rate = 0.004;
    config.member_spares = 8;

    const TrialMetrics m = RunArrayRebuildTrial(config, opts.seed);
    const int state = static_cast<int>(Metric(m, "array_final_state"));
    char label[32];
    std::snprintf(label, sizeof(label), "w16/%s", RebuildPolicyName(policy));
    table.Row({label,
               Fmt("%.3f", Metric(m, "mean_response_ms")),
               Fmt("%.0f", Metric(m, "fault_permanent")), Fmt("%.0f", Metric(m, "fault_remaps")),
               Fmt("%.0f", Metric(m, "rebuild_ios")),
               ArrayStateName(static_cast<ArrayState>(state))});
  }
  return 0;
}
