// Shared helpers for the experiment benches.
//
// Every bench prints an aligned text table by default and accepts only the
// flags it reads (BenchFlag); anything else prints its usage and exits 2:
//   --csv          machine-readable output
//   --fast         quicker, lower-resolution run (fewer requests)
//   --trials N     independent trials per cell (default 1, at most
//                  TrialRunner::kMaxTrials); tables then show "mean±ci95"
//                  and JSON carries the full aggregate
//   --jobs N       worker threads for the trial fan-out (0 = all cores, at
//                  most TrialRunner::kMaxJobs)
//   --seed S       base seed of the bench's random streams (per-trial seeds
//                  derive from it)
//   --json PATH    write a JSON document of the bench's results
//   --trace PATH   write a Chrome trace-event JSON of trial 0 of each cell
//                  (one track per cell; per-request phase slices). The trace
//                  comes from a separate serial re-run, so measured results
//                  are byte-identical with and without it.
// plus --fault-rate, --layouts, --trace-file, --arrival-mode and --clients
// (at most BenchOptions::kMaxClients), each read by one bench.
#ifndef MSTK_BENCH_BENCH_UTIL_H_
#define MSTK_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"
#include "src/core/trial_runner.h"
#include "src/disk/disk_device.h"
#include "src/fault/injector.h"
#include "src/layout/layout_map.h"
#include "src/layout/layout_policy.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/trace/format.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/cello_like.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {

// Strict numeric arguments for every CLI: the whole argument must parse, and
// out-of-range values fail rather than wrap or reach a library precondition.
// An argument starts with a digit. No caller's range holds a negative value,
// so none needs the sign or the leading whitespace that strtoll and strtod
// would also take.
inline bool ParseWhole(const char* arg, int64_t lo, int64_t hi, int64_t* value) {
  if (arg[0] < '0' || arg[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *value = std::strtoll(arg, &end, 10);
  return *end == '\0' && errno != ERANGE && *value >= lo && *value <= hi;
}

// A finite real in [lo, hi], in decimal: strtod's hex spelling fails.
inline bool ParseReal(const char* arg, double lo, double hi, double* value) {
  if (arg[0] < '0' || arg[0] > '9' || std::strpbrk(arg, "xX") != nullptr) return false;
  char* end = nullptr;
  *value = std::strtod(arg, &end);
  return *end == '\0' && std::isfinite(*value) && *value >= lo && *value <= hi;
}

inline bool ParsePositive(const char* arg, double* value) {
  return ParseReal(arg, 0.0, HUGE_VAL, value) && *value > 0.0;
}

// One bit per command-line flag; a bench passes the flags it reads.
enum BenchFlag : unsigned {
  kCsv = 1u << 0,
  kFast = 1u << 1,
  kTrials = 1u << 2,
  kJobs = 1u << 3,
  kSeed = 1u << 4,
  kFaultRate = 1u << 5,
  kLayouts = 1u << 6,
  kJson = 1u << 7,
  kTrace = 1u << 8,
  kTraceFile = 1u << 9,
  kArrivalMode = 1u << 10,
  kClients = 1u << 11,
  // What TrialOptions() reads.
  kTrialFlags = kTrials | kJobs | kSeed,
};

struct BenchOptions {
  // Bound of --clients, the --jobs bound: the multiplied trace holds every
  // copy at once, so an unbounded factor ends in an allocation failure.
  static constexpr int kMaxClients = 1024;

  bool csv = false;
  bool fast = false;
  int64_t trials = 1;
  int jobs = 0;  // 0 = one worker per hardware core
  uint64_t seed = 1;
  // Per-attempt transient-error probability for fault-injection sections
  // (0 disables injection; see docs/USAGE.md "Fault injection").
  double fault_rate = 0.0;
  // Layout-policy selection for the layout benches: "legacy" (default),
  // "all", or a comma list of policy names (see LayoutPolicyNames()).
  std::string layouts;
  // Trace-replay inputs (bench/trace_replay): an external v1 trace file
  // (default: the built-in scenario zoo), the arrival-control mode
  // ("open" / "closed" / "hybrid"), and the N-way client-multiplication
  // fan-in factor.
  std::string trace_file;
  std::string arrival_mode = "open";
  int clients = 1;
  std::string json_path;
  std::string trace_path;

  // Parses the flags in `accepted` (a BenchFlag mask). Any other flag, a
  // missing value, or a malformed or out-of-range number prints the usage
  // and exits 2.
  static BenchOptions Parse(int argc, char** argv, unsigned accepted) {
    BenchOptions opts;
    int64_t whole = 0;
    for (int i = 1; i < argc; ++i) {
      const FlagInfo* flag = nullptr;
      for (const FlagInfo& f : kFlags) {
        if ((accepted & f.bit) != 0 && std::strcmp(argv[i], f.name) == 0) flag = &f;
      }
      if (flag == nullptr) Usage(argv[0], accepted);
      const char* value = nullptr;
      if (flag->value != nullptr) {
        if (i + 1 >= argc) Usage(argv[0], accepted);
        value = argv[++i];
      }
      bool ok = true;
      switch (flag->bit) {
        case kCsv: opts.csv = true; break;
        case kFast: opts.fast = true; break;
        case kTrials: ok = ParseWhole(value, 1, TrialRunner::kMaxTrials, &opts.trials); break;
        case kJobs:
          ok = ParseWhole(value, 0, TrialRunner::kMaxJobs, &whole);
          opts.jobs = static_cast<int>(whole);
          break;
        case kSeed:
          ok = ParseWhole(value, 0, INT64_MAX, &whole);
          opts.seed = static_cast<uint64_t>(whole);
          break;
        case kFaultRate: ok = ParseReal(value, 0.0, 1.0, &opts.fault_rate); break;
        case kLayouts: opts.layouts = value; break;
        case kJson: opts.json_path = value; break;
        case kTrace: opts.trace_path = value; break;
        case kTraceFile: opts.trace_file = value; break;
        case kArrivalMode: opts.arrival_mode = value; break;
        case kClients:
          ok = ParseWhole(value, 1, kMaxClients, &whole);
          opts.clients = static_cast<int>(whole);
          break;
      }
      if (!ok) Usage(argv[0], accepted);
    }
    return opts;
  }

  int64_t Scale(int64_t full) const { return fast ? full / 5 : full; }

  TrialRunner::Options TrialOptions() const {
    TrialRunner::Options t;
    t.trials = trials;
    t.jobs = jobs;
    t.base_seed = seed;
    return t;
  }

 private:
  struct FlagInfo {
    unsigned bit;
    const char* name;
    const char* value;  // metavariable in the usage line; nullptr = no value
  };
  // Usage-line order.
  static constexpr FlagInfo kFlags[] = {
      {kCsv, "--csv", nullptr},          {kFast, "--fast", nullptr},
      {kTrials, "--trials", "N"},        {kJobs, "--jobs", "N"},
      {kSeed, "--seed", "S"},            {kFaultRate, "--fault-rate", "P"},
      {kLayouts, "--layouts", "L"},      {kJson, "--json", "PATH"},
      {kTrace, "--trace", "PATH"},       {kTraceFile, "--trace-file", "PATH"},
      {kArrivalMode, "--arrival-mode", "open|closed|hybrid"},
      {kClients, "--clients", "N"},
  };

  // Prints the accepted flags only.
  [[noreturn]] static void Usage(const char* argv0, unsigned accepted) {
    std::string line = std::string("usage: ") + argv0;
    for (const FlagInfo& f : kFlags) {
      if ((accepted & f.bit) == 0) continue;
      line += std::string(" [") + f.name;
      if (f.value != nullptr) line += std::string(" ") + f.value;
      line += "]";
    }
    std::fprintf(stderr, "%s\n", line.c_str());
    std::exit(2);
  }
};

// Prints one row of either CSV or fixed-width cells.
class TableWriter {
 public:
  explicit TableWriter(bool csv) : csv_(csv) {}

  void Row(const std::vector<std::string>& cells, int width = 14, int first_width = 18) const {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (csv_) {
        std::printf("%s%s", cells[i].c_str(), i + 1 < cells.size() ? "," : "");
      } else {
        // Pad by display width, not bytes: "±" in CI cells is multibyte.
        int display = 0;
        for (unsigned char c : cells[i]) {
          if ((c & 0xC0) != 0x80) ++display;
        }
        const int pad = (i == 0 ? first_width : width) - display;
        std::printf("%s%*s", cells[i].c_str(), pad > 0 ? pad : 0, "");
      }
    }
    std::printf("\n");
  }

 private:
  bool csv_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// "1.234" for single trials, "1.234±0.056" (95% CI half-width) otherwise.
inline std::string FmtCi(const char* fmt, const AggregateMetric& m) {
  std::string cell = Fmt(fmt, m.mean);
  if (m.ci95_hi > m.ci95_lo) {
    cell += "\xC2\xB1";  // U+00B1 PLUS-MINUS
    cell += Fmt(fmt, (m.ci95_hi - m.ci95_lo) / 2.0);
  }
  return cell;
}

// Collects (cell label -> aggregate) pairs and serializes the whole bench
// as one JSON document: {"bench":..,"trials":..,"cells":[{"name":..,...}]}.
class BenchJson {
 public:
  BenchJson(std::string bench_name, const BenchOptions& opts)
      : bench_name_(std::move(bench_name)), opts_(opts) {}

  void AddCell(const std::string& name, const AggregateResult& agg) {
    cells_.emplace_back(name, agg);
  }

  // Writes the document if --json was given. Returns false on I/O error.
  bool WriteIfRequested() const {
    if (opts_.json_path.empty()) return true;
    JsonWriter json;
    json.BeginObject();
    json.KV("bench", bench_name_);
    json.KV("base_seed", opts_.seed);
    json.KV("trials", opts_.trials);
    json.Key("cells");
    json.BeginArray();
    for (const auto& [name, agg] : cells_) {
      json.BeginObject();
      json.KV("name", name);
      json.Key("result");
      agg.AppendJson(json);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return WriteFileOrReport(opts_.json_path, json.TakeString());
  }

 private:
  std::string bench_name_;
  const BenchOptions& opts_;
  std::vector<std::pair<std::string, AggregateResult>> cells_;
};

// Runs the sweep core of the scheduling figures: one (device, scheduler,
// rate) cell of Fig 5/6/8.
struct SchedulingCell {
  double mean_response_ms;
  double scv;
};

inline SchedulingCell RunSchedulingCell(StorageDevice* device, IoScheduler* scheduler,
                                        const std::vector<Request>& requests) {
  const ExperimentResult result = Run(device, scheduler, requests);
  return SchedulingCell{result.MeanResponseMs(), result.ResponseScv()};
}

// ---------------------------------------------------------------------------
// Self-contained trial bodies for the multi-trial scheduling figures. Each
// call owns its device, scheduler, and event queue, so trials are safe to
// fan out across TrialRunner's threads; randomness comes only from `seed`.
// Shared by fig6/fig7 and tools/mstk_sweep so the sweep artifacts measure
// exactly the figure cells.

enum class SchedKind { kFcfs, kSstfLbn, kClook, kSptf };

inline const char* SchedKindName(SchedKind kind) {
  switch (kind) {
    case SchedKind::kFcfs: return "FCFS";
    case SchedKind::kSstfLbn: return "SSTF_LBN";
    case SchedKind::kClook: return "C-LOOK";
    case SchedKind::kSptf: return "SPTF";
  }
  return "?";
}

// The one SchedKind -> scheduler switch. SPTF borrows `device` for its
// positioning estimates.
inline std::unique_ptr<IoScheduler> MakeScheduler(SchedKind kind, const StorageDevice* device) {
  switch (kind) {
    case SchedKind::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedKind::kSstfLbn: return std::make_unique<SstfLbnScheduler>();
    case SchedKind::kClook: return std::make_unique<ClookScheduler>();
    case SchedKind::kSptf: return std::make_unique<SptfScheduler>(device);
  }
  return std::make_unique<FcfsScheduler>();
}

inline ExperimentResult RunWithScheduler(StorageDevice* device, SchedKind kind,
                                         const std::vector<Request>& requests,
                                         const RunConfig& config = {}, TraceTrack trace = {}) {
  return Run(device, MakeScheduler(kind, device).get(), requests, config, trace);
}

// One Fig 6 cell trial: random workload at `rate` on a fresh MEMS device.
inline ExperimentResult RunRandomSchedTrial(SchedKind kind, double rate, int64_t count,
                                            uint64_t seed, TraceTrack trace = {}) {
  MemsDevice device;
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate;
  config.request_count = count;
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(seed);
  const auto requests = GenerateRandomWorkload(config, rng);
  return RunWithScheduler(&device, kind, requests, {}, trace);
}

// One fault-injection cell trial: random workload at `rate` on a fresh
// device (MEMS, or the disk to exercise the slip / spare-region remap
// penalties) with online fault injection and recovery (§6). The injector's
// fault stream is derived from `seed` so trials stay independent and
// deterministic.
inline ExperimentResult RunFaultedTrial(
    bool disk, SchedKind kind, double rate, int64_t count, const FaultInjectorConfig& faults,
    uint64_t seed, TraceTrack trace = {},
    TimeMs rebuild_idle_delay_ms = RunConfig{}.rebuild_idle_delay_ms) {
  std::unique_ptr<StorageDevice> device;
  if (disk) {
    device = std::make_unique<DiskDevice>();
  } else {
    device = std::make_unique<MemsDevice>();
  }
  RandomWorkloadConfig wl;
  wl.arrival_rate_per_s = rate;
  wl.request_count = count;
  wl.capacity_blocks = device->CapacityBlocks();
  Rng rng(seed);
  const auto requests = GenerateRandomWorkload(wl, rng);
  FaultInjector injector(faults, device->CapacityBlocks(),
                         DeriveTrialSeed(seed, /*trial_index=*/0x0fa17));
  RunConfig config;
  config.fault_model = &injector;
  config.rebuild_idle_delay_ms = rebuild_idle_delay_ms;
  return RunWithScheduler(device.get(), kind, requests, config, trace);
}

// One layout-cube cell trial (tools/mstk_sweep `layouts` matrix): a
// bipartite open-loop read stream in the Fig 11 mix (89% 4 KB accesses to a
// hot pool, 11% 64 KB reads from a cold pool) — or a cello-like trace when
// `cello` is set — generated over the policy's logical space, mapped through
// the policy's ExtentLayout, and run under `kind` on a fresh MEMS device.
inline ExperimentResult RunLayoutSchedTrial(const LayoutPolicy& policy, bool cello,
                                            SchedKind kind, int64_t count, uint64_t seed,
                                            TraceTrack trace = {}) {
  MemsDevice device;
  LayoutSpec spec;
  spec.geometry = &device.geometry();
  spec.device_capacity_blocks = device.CapacityBlocks();
  spec.hot_blocks = 200000;
  spec.cold_blocks = 800000;
  const ExtentLayout layout = policy.Build(spec);
  const int64_t logical_blocks = spec.hot_blocks + spec.cold_blocks;
  Rng rng(seed);
  std::vector<Request> logical;
  if (cello) {
    CelloLikeConfig config;
    config.request_count = count;
    config.capacity_blocks = logical_blocks;
    logical = GenerateCelloLike(config, rng);
  } else {
    RandomWorkloadConfig config;
    config.arrival_rate_per_s = 500.0;
    config.request_count = count;
    config.capacity_blocks = logical_blocks;
    logical = GenerateRandomWorkload(config, rng);
    // Reshape into the bipartite mix; arrivals keep the Poisson process.
    for (Request& req : logical) {
      req.type = IoType::kRead;
      if (rng.Bernoulli(0.11)) {
        req.block_count = 128;  // 64 KB cold read
        req.lbn = spec.hot_blocks + rng.UniformInt(spec.cold_blocks - req.block_count);
      } else {
        req.block_count = 8;  // 4 KB hot read
        req.lbn = rng.UniformInt(spec.hot_blocks - req.block_count);
      }
    }
  }
  const std::vector<Request> mapped = ApplyLayout(layout, logical);
  return RunWithScheduler(&device, kind, mapped, {}, trace);
}

// One Fig 7(a) cell trial: cello-like trace at time-scale `scale`.
inline ExperimentResult RunCelloSchedTrial(SchedKind kind, double scale, int64_t count,
                                           uint64_t seed, TraceTrack trace = {}) {
  MemsDevice device;
  CelloLikeConfig config;
  config.request_count = count;
  config.capacity_blocks = device.CapacityBlocks();
  config.scale = scale;
  Rng rng(seed);
  const auto requests = GenerateCelloLike(config, rng);
  return RunWithScheduler(&device, kind, requests, {}, trace);
}

// One `traces` matrix cell trial (tools/mstk_sweep, bench/trace_replay): the
// named scenario is generated at the trial seed, optionally client-multiplied
// and time-warped, remapped onto the target address space, and replayed
// through the Driver path under the chosen arrival control. With a layout
// policy the trace lands in the policy's logical space and goes through its
// ExtentLayout (the layout-cube spec); without one it maps straight onto
// device LBNs.
struct ScenarioReplaySpec {
  std::string scenario;
  SchedKind sched = SchedKind::kSptf;
  const LayoutPolicy* layout = nullptr;
  ArrivalMode mode = ArrivalMode::kOpen;
  int window = 8;
  int clients = 1;
  double warp = 1.0;
  int64_t count = 2000;
};

inline ExperimentResult RunScenarioReplayTrial(const ScenarioReplaySpec& spec, uint64_t seed,
                                               TraceTrack trace_track = {}) {
  trace::ScenarioConfig config;
  config.request_count = spec.count;
  config.seed = seed;
  trace::ParsedTrace parsed = trace::GenerateScenario(spec.scenario, config);
  if (spec.clients > 1) {
    parsed.records = trace::MultiplyClients(parsed.records, spec.clients,
                                            trace::ScenarioFootprintBlocks(spec.scenario));
  }
  if (spec.warp != 1.0) {
    parsed.records = trace::TimeWarp(parsed.records, spec.warp);
  }
  MemsDevice device;
  RunConfig replay;
  replay.mode = spec.mode;
  replay.window = spec.window;
  if (spec.layout == nullptr) {
    parsed.records = trace::RemapToCapacity(parsed.records, device.CapacityBlocks(),
                                            trace::RemapMode::kScale);
    return RunWithScheduler(&device, spec.sched, trace::ToRequests(parsed), replay, trace_track);
  }
  LayoutSpec layout_spec;
  layout_spec.geometry = &device.geometry();
  layout_spec.device_capacity_blocks = device.CapacityBlocks();
  layout_spec.hot_blocks = 200000;
  layout_spec.cold_blocks = 800000;
  parsed.records = trace::RemapToCapacity(
      parsed.records, layout_spec.hot_blocks + layout_spec.cold_blocks, trace::RemapMode::kScale);
  const std::vector<Request> mapped =
      ApplyLayout(spec.layout->Build(layout_spec), trace::ToRequests(parsed));
  return RunWithScheduler(&device, spec.sched, mapped, replay, trace_track);
}

// One Fig 7(b) cell trial: tpcc-like trace at time-scale `scale`.
inline ExperimentResult RunTpccSchedTrial(SchedKind kind, double scale, int64_t count,
                                          uint64_t seed, TraceTrack trace = {}) {
  MemsDevice device;
  TpccLikeConfig config;
  config.request_count = count;
  config.capacity_blocks = device.CapacityBlocks();
  config.scale = scale;
  Rng rng(seed);
  const auto requests = GenerateTpccLike(config, rng);
  return RunWithScheduler(&device, kind, requests, {}, trace);
}

}  // namespace mstk

#endif  // MSTK_BENCH_BENCH_UTIL_H_
