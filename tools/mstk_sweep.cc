// mstk_sweep — run a named (workload, scheduler, rate/scale) config matrix
// as parallel multi-trial experiments and emit one JSON document per sweep.
//
//   mstk_sweep smoke --trials 4 --jobs 2 --json BENCH_smoke.json
//   mstk_sweep sched_random --trials 8 --json BENCH_sched_random.json
//   mstk_sweep smoke --trace trace.json   # Chrome trace of trial 0 per cell
//   mstk_sweep --list
//
// The JSON deliberately records no wall-clock time and no job count, so the
// same (sweep, seed, trials) invocation is byte-identical at any --jobs
// value. --trace re-runs trial 0 of each cell serially after the sweep with
// a recording track attached (one lane per cell, per-request phase slices
// for chrome://tracing / Perfetto), so the sweep JSON itself stays
// byte-identical with and without tracing. scripts/goldens.py pins the JSON
// of every listed sweep exactly.
//
// Every sweep lives in the kSweeps registry below: one row per matrix, with
// a one-line summary. --list and the usage string are generated from the
// registry, so adding a sweep is one build function plus one table row (and
// a refreshed golden manifest).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/array/array_experiment.h"

namespace {

using namespace mstk;

struct SweepCell {
  std::string name;
  // Distinct offset per seed group: cells sharing an offset (e.g. every
  // scheduler at one rate) replay identical request streams.
  int64_t seed_offset;
  std::function<TrialMetrics(uint64_t seed, TraceTrack trace)> trial;
};

constexpr SchedKind kAllScheds[] = {SchedKind::kFcfs, SchedKind::kSstfLbn,
                                    SchedKind::kClook, SchedKind::kSptf};

void AddRateCells(std::vector<SweepCell>& cells, const std::vector<SchedKind>& scheds,
                  const std::vector<double>& rates, int64_t count) {
  for (size_t r = 0; r < rates.size(); ++r) {
    for (SchedKind sched : scheds) {
      const double rate = rates[r];
      cells.push_back({"rate" + Fmt("%.0f", rate) + "/" + SchedKindName(sched),
                       static_cast<int64_t>(r),
                       [sched, rate, count](uint64_t seed, TraceTrack trace) {
                         return MetricsFromExperiment(
                             RunRandomSchedTrial(sched, rate, count, seed, trace));
                       }});
    }
  }
}

std::vector<SweepCell> BuildSmoke() {
  std::vector<SweepCell> cells;
  AddRateCells(cells, {SchedKind::kFcfs, SchedKind::kSptf}, {600, 1200}, 2000);
  return cells;
}

std::vector<SweepCell> BuildSchedRandom() {
  std::vector<SweepCell> cells;
  AddRateCells(cells, std::vector<SchedKind>(std::begin(kAllScheds), std::end(kAllScheds)),
               {200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}, 10000);
  return cells;
}

std::vector<SweepCell> BuildFaults() {
  // §6 recovery matrix: each cell stresses one leg of the fault path.
  // Distinct seed offsets — the cells model different failure regimes, so
  // sharing request streams buys no pairing.
  std::vector<SweepCell> cells;
  auto add_fault_cell = [&cells](const std::string& label, int64_t offset, SchedKind sched,
                                 double rate, int64_t count, FaultInjectorConfig faults,
                                 bool disk) {
    cells.push_back({label, offset,
                     [sched, rate, count, faults, disk](uint64_t seed, TraceTrack trace) {
                       return MetricsFromExperiment(
                           RunFaultedTrial(disk, sched, rate, count, faults, seed, trace));
                     }});
  };
  FaultInjectorConfig transient;
  transient.transient_rate = 0.02;
  transient.lost_completion_rate = 0.002;
  add_fault_cell("transient/SPTF", 100, SchedKind::kSptf, 600, 2000, transient, false);
  FaultInjectorConfig remap;  // permanent failures absorbed by spare tips
  remap.permanent_rate = 0.005;
  remap.spares = 256;
  add_fault_cell("remap_spare_tip/SPTF", 101, SchedKind::kSptf, 600, 2000, remap, false);
  FaultInjectorConfig degraded;  // spares exhaust quickly -> degraded mode
  degraded.permanent_rate = 0.01;
  degraded.spares = 4;
  add_fault_cell("degraded/SPTF", 102, SchedKind::kSptf, 600, 2000, degraded, false);
  FaultInjectorConfig mixed;  // everything at once under FCFS at high load
  mixed.transient_rate = 0.02;
  mixed.permanent_rate = 0.002;
  mixed.lost_completion_rate = 0.002;
  mixed.spares = 32;
  add_fault_cell("mixed/FCFS", 103, SchedKind::kFcfs, 1200, 2000, mixed, false);
  FaultInjectorConfig disk_slip;  // disk-style slip remapping penalties
  disk_slip.permanent_rate = 0.005;
  disk_slip.spares = 128;
  disk_slip.remap_style = RemapStyle::kDiskSlip;
  add_fault_cell("disk_slip/CLOOK", 104, SchedKind::kClook, 200, 800, disk_slip, true);
  return cells;
}

std::vector<SweepCell> BuildLayouts() {
  // Layout cube (§5.3 x KAIST strategies): every registry policy against
  // paired workload streams under a seek-blind and a position-aware
  // scheduler. Cells sharing a workload share a seed offset, so every
  // (policy, scheduler) pair replays the identical logical stream and the
  // matrix isolates the placement effect.
  std::vector<SweepCell> cells;
  const struct {
    const char* label;
    bool cello;
    int64_t offset;
  } kWorkloads[] = {{"bipartite", false, 200}, {"cello", true, 201}};
  for (const auto& wl : kWorkloads) {
    for (const LayoutPolicy* policy : AllLayoutPolicies()) {
      for (SchedKind sched : {SchedKind::kFcfs, SchedKind::kSptf}) {
        cells.push_back(
            {std::string(policy->name()) + "/" + wl.label + "/" + SchedKindName(sched),
             wl.offset,
             [policy, cello = wl.cello, sched](uint64_t seed, TraceTrack trace) {
               return MetricsFromExperiment(
                   RunLayoutSchedTrial(*policy, cello, sched, 4000, seed, trace));
             }});
      }
    }
  }
  return cells;
}

std::vector<SweepCell> BuildArrays() {
  // Managed-array lifecycle matrix: stripe width x rebuild policy x member
  // fault rate, 16+ devices per array. Every cell schedules a device-0
  // failure early in the run, so the degraded -> rebuilding -> resync
  // cycle (and its rebuild I/O, counted apart from foreground) is part of
  // every measured trial; the fault-rate axis layers per-member
  // transient/permanent injection on top. Cells at one width and fault
  // rate share a seed offset, so the two rebuild policies replay the
  // identical foreground stream.
  std::vector<SweepCell> cells;
  for (const int width : {16, 20}) {
    for (const double fault_rate : {0.0, 0.004}) {
      const int64_t offset = 300 + width + (fault_rate > 0.0 ? 1 : 0);
      for (const RebuildPolicy policy : {RebuildPolicy::kIdle, RebuildPolicy::kGreedy}) {
        char label[64];
        std::snprintf(label, sizeof(label), "w%d/%s/fault%.3f", width, RebuildPolicyName(policy),
                      fault_rate);
        cells.push_back(
            {label,
             offset, [width, policy, fault_rate](uint64_t seed, TraceTrack) {
               ArrayRunConfig config;
               config.manager.raid = RaidConfig{RaidLevel::kRaid5, 64};
               config.manager.active_members = width;
               config.manager.member_extent_blocks = 4096;
               config.manager.rebuild_policy = policy;
               config.manager.rebuild_chunk_blocks = 512;
               config.spares = 2;
               config.workload.arrival_rate_per_s = 1500.0;
               config.workload.request_count = 400;
               config.fail_device = 0;
               config.fail_at_ms = 5.0;
               config.transient_rate = fault_rate > 0.0 ? 0.01 : 0.0;
               config.permanent_rate = fault_rate;
               config.member_spares = 8;
               return RunArrayRebuildTrial(config, seed);
             }});
      }
    }
  }
  return cells;
}

std::vector<SweepCell> BuildSchedTrace(bool cello) {
  std::vector<SweepCell> cells;
  const std::vector<double> scales = cello ? std::vector<double>{1, 2, 4, 8, 12, 16, 20}
                                           : std::vector<double>{1, 2, 4, 6, 8, 10, 12};
  for (const double scale : scales) {
    for (SchedKind sched : kAllScheds) {
      cells.push_back({std::string(cello ? "cello" : "tpcc") + "_scale" + Fmt("%.0f", scale) +
                           "/" + SchedKindName(sched),
                       0,  // same base trace at every scale, as in the paper
                       [cello, sched, scale](uint64_t seed, TraceTrack trace) {
                         return MetricsFromExperiment(
                             cello ? RunCelloSchedTrial(sched, scale, 20000, seed, trace)
                                   : RunTpccSchedTrial(sched, scale, 20000, seed, trace));
                       }});
    }
  }
  return cells;
}

std::vector<SweepCell> BuildSchedCello() { return BuildSchedTrace(true); }

std::vector<SweepCell> BuildSchedTpcc() { return BuildSchedTrace(false); }

std::vector<SweepCell> BuildTraces() {
  // Scenario-zoo replay matrix: every scenario x {seek-blind, position-
  // aware} scheduler x {linear, 2-D tiled} layout, replayed open-loop
  // through the Driver path. Cells of one scenario share a seed offset, so
  // the scheduler and layout axes replay the identical record stream. Two
  // extra cells replay oltp_burst under closed and hybrid arrival control —
  // the §4.3 feedback axis — against the same stream as its open cells.
  std::vector<SweepCell> cells;
  const LayoutPolicy* const kLayouts[] = {FindLayoutPolicy("simple"), FindLayoutPolicy("tiled")};
  const auto& names = trace::ScenarioNames();
  for (size_t s = 0; s < names.size(); ++s) {
    const std::string scenario = names[s];
    const int64_t offset = 400 + static_cast<int64_t>(s);
    for (const LayoutPolicy* layout : kLayouts) {
      for (SchedKind sched : {SchedKind::kFcfs, SchedKind::kSptf}) {
        cells.push_back({scenario + "/" + layout->name() + "/" + SchedKindName(sched), offset,
                         [scenario, layout, sched](uint64_t seed, TraceTrack trace) {
                           ScenarioReplaySpec spec;
                           spec.scenario = scenario;
                           spec.layout = layout;
                           spec.sched = sched;
                           return MetricsFromExperiment(
                               RunScenarioReplayTrial(spec, seed, trace));
                         }});
      }
    }
  }
  for (const ArrivalMode mode : {ArrivalMode::kClosed, ArrivalMode::kHybrid}) {
    cells.push_back({std::string("oltp_burst/") + ArrivalModeName(mode) + "/SPTF", 401,
                     [mode](uint64_t seed, TraceTrack trace) {
                       ScenarioReplaySpec spec;
                       spec.scenario = "oltp_burst";
                       spec.sched = SchedKind::kSptf;
                       spec.mode = mode;
                       return MetricsFromExperiment(RunScenarioReplayTrial(spec, seed, trace));
                     }});
  }
  return cells;
}

struct SweepInfo {
  const char* name;
  const char* summary;
  std::vector<SweepCell> (*build)();
};

constexpr SweepInfo kSweeps[] = {
    {"smoke", "2 schedulers x 2 rates, 2000 requests (~seconds)", BuildSmoke},
    {"sched_random", "Fig 6 matrix: 4 schedulers x 10 arrival rates", BuildSchedRandom},
    {"sched_cello", "Fig 7(a) matrix: 4 schedulers x 7 trace time scales", BuildSchedCello},
    {"sched_tpcc", "Fig 7(b) matrix: 4 schedulers x 7 trace time scales", BuildSchedTpcc},
    {"faults", "§6 online fault injection & recovery matrix", BuildFaults},
    {"layouts", "layout cube: every LayoutPolicy x 2 workloads x 2 schedulers", BuildLayouts},
    {"arrays", "managed-array lifecycle: width x rebuild policy x fault rate", BuildArrays},
    {"traces", "scenario zoo replay: 4 scenarios x 2 schedulers x 2 layouts + arrival modes",
     BuildTraces},
};

const SweepInfo* FindSweep(const std::string& name) {
  for (const SweepInfo& info : kSweeps) {
    if (name == info.name) {
      return &info;
    }
  }
  return nullptr;
}

std::string RunSweepJson(const std::string& sweep, const std::vector<SweepCell>& cells,
                         int64_t trials, int jobs, uint64_t base_seed) {
  JsonWriter json;
  json.BeginObject();
  json.KV("sweep", sweep);
  json.KV("base_seed", base_seed);
  json.KV("trials", trials);
  json.Key("cells");
  json.BeginArray();
  for (const SweepCell& cell : cells) {
    TrialRunner::Options opts;
    opts.trials = trials;
    opts.jobs = jobs;
    opts.base_seed = DeriveTrialSeed(base_seed, cell.seed_offset);
    const AggregateResult agg = TrialRunner::Run(
        opts, [&cell](uint64_t seed, int64_t) { return cell.trial(seed, TraceTrack{}); });
    json.BeginObject();
    json.KV("name", cell.name);
    json.Key("result");
    agg.AppendJson(json);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

int Usage(const char* argv0) {
  std::string sweeps;
  for (const SweepInfo& info : kSweeps) {
    if (!sweeps.empty()) sweeps += ' ';
    sweeps += info.name;
  }
  std::fprintf(stderr,
               "usage: %s [SWEEP] [--trials N] [--jobs N] [--seed S] [--json PATH]\n"
               "          [--trace PATH]\n"
               "       %s --list\n"
               "sweeps: %s\n",
               argv0, argv0, sweeps.c_str());
  return 2;
}

// Chrome trace of trial 0 of every cell: a separate serial re-run with a
// per-cell track, so tracing cannot perturb the sweep's measured results.
bool WriteSweepTrace(const std::string& path, const std::vector<SweepCell>& cells,
                     uint64_t base_seed) {
  TraceWriter writer;
  for (const SweepCell& cell : cells) {
    const int tid = writer.AddTrack(cell.name);
    const uint64_t cell_seed =
        DeriveTrialSeed(DeriveTrialSeed(base_seed, cell.seed_offset), 0);
    cell.trial(cell_seed, TraceTrack(&writer, tid));
  }
  return writer.WriteFile(path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string sweep = "smoke";
  int64_t trials = 4;
  int jobs = 0;  // all cores
  uint64_t base_seed = 1;
  std::string json_path;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage(argv[0]));
      return argv[++i];
    };
    int64_t whole = 0;
    if (std::strcmp(arg, "--list") == 0) {
      for (const SweepInfo& info : kSweeps) {
        std::printf("%s\n", info.name);
      }
      return 0;
    } else if (std::strcmp(arg, "--trials") == 0) {
      if (!ParseWhole(next(), 1, TrialRunner::kMaxTrials, &trials)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if (!ParseWhole(next(), 0, TrialRunner::kMaxJobs, &whole)) return Usage(argv[0]);
      jobs = static_cast<int>(whole);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!ParseWhole(next(), 0, INT64_MAX, &whole)) return Usage(argv[0]);
      base_seed = static_cast<uint64_t>(whole);
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = next();
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path = next();
    } else if (arg[0] != '-') {
      sweep = arg;
    } else {
      return Usage(argv[0]);
    }
  }

  const SweepInfo* info = FindSweep(sweep);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown sweep: %s\n", sweep.c_str());
    return Usage(argv[0]);
  }
  const std::vector<SweepCell> cells = info->build();

  const std::string doc = RunSweepJson(sweep, cells, trials, jobs, base_seed);
  if (!trace_path.empty() && !WriteSweepTrace(trace_path, cells, base_seed)) {
    return 1;
  }
  if (json_path.empty()) {
    std::fputs(doc.c_str(), stdout);
    return 0;
  }
  return WriteFileOrReport(json_path, doc) ? 0 : 1;
}
