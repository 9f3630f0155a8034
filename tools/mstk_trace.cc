// mstk_trace — command-line trace tooling. Every trace file it reads or
// writes is MSTKTRACE (src/trace/format.h).
//
//   mstk_trace gen <random|cello|tpcc> <out.trace> [count] [rate] [seed]
//       Generate a synthetic workload and write it as a trace.
//   mstk_trace stats <in.trace>
//       Print arrival/size/locality statistics for a trace.
//   mstk_trace replay <in.trace> <mems|disk> <fcfs|sstf|clook|look|sptf>
//              [scale] [open|closed|hybrid] [window]
//       Replay a trace against a device model under a scheduler and print
//       the paper's metrics (mean response, sigma^2/mu^2, tail). As in the
//       `traces` sweep, the trace is remapped onto the device's capacity,
//       then time-warped by `scale` (2 doubles the arrival rate). The
//       arrival mode (default open) is the run harness's arrival control.
//   mstk_trace fidelity <lhs> <rhs> [--json PATH] [--require-differs]
//              [--count N] [--seed S]
//       Compare two workload streams on the arrival-interval, request-size,
//       and spatial-locality marginals. <lhs>/<rhs> are trace files, or one
//       of the synthetic generator names random|cello|tpcc (generated at
//       --count/--seed). --require-differs exits nonzero unless at least one
//       marginal differs — the golden check uses it to prove the reporter
//       detects the gap between the replayed oltp_burst scenario and the
//       steady tpcc synthetic.
//   mstk_trace convert <in> <out.trace> [devno]
//       Import a DiskSim or old mstk ASCII trace (trace::ImportTrace);
//       `devno` keeps one device's DiskSim records.
//
// Counts, rates, scales and windows must be positive numbers (counts and
// windows whole) and seeds whole numbers in [0, 2^63), else the tool prints
// its usage and exits 2.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/look.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/trace/fidelity.h"
#include "src/trace/format.h"
#include "src/trace/transforms.h"
#include "src/workload/analysis.h"
#include "src/workload/cello_like.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace {

using namespace mstk;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mstk_trace gen <random|cello|tpcc> <out.trace> [count] [rate] [seed]\n"
               "  mstk_trace stats <in.trace>\n"
               "  mstk_trace replay <in.trace> <mems|disk> "
               "<fcfs|sstf|clook|look|sptf> [scale]\n"
               "             [open|closed|hybrid] [window]\n"
               "  mstk_trace fidelity <lhs> <rhs> [--json PATH] [--require-differs]\n"
               "             [--count N] [--seed S]   (lhs/rhs: file or random|cello|tpcc)\n"
               "  mstk_trace convert <in.disksim|in.ascii> <out.trace> [devno]\n");
  return 2;
}

// Generates one of the synthetic comparison streams by name. Returns an
// empty vector for an unknown name.
std::vector<Request> GenerateSynthetic(const std::string& kind, int64_t count, double rate,
                                       uint64_t seed) {
  const int64_t capacity = MemsParams{}.capacity_blocks();
  Rng rng(seed);
  if (kind == "random") {
    RandomWorkloadConfig config;
    config.request_count = count;
    config.capacity_blocks = capacity;
    if (rate > 0.0) {
      config.arrival_rate_per_s = rate;
    }
    return GenerateRandomWorkload(config, rng);
  }
  if (kind == "cello") {
    CelloLikeConfig config;
    config.request_count = count;
    config.capacity_blocks = capacity;
    if (rate > 0.0) {
      config.base_rate_per_s = rate;
    }
    return GenerateCelloLike(config, rng);
  }
  if (kind == "tpcc") {
    TpccLikeConfig config;
    config.request_count = count;
    config.capacity_blocks = capacity;
    if (rate > 0.0) {
      config.base_rate_per_s = rate;
    }
    return GenerateTpccLike(config, rng);
  }
  return {};
}

// Loads a comparison stream: a synthetic generator name or a trace file.
std::vector<Request> LoadStream(const std::string& spec, int64_t count, uint64_t seed,
                                std::string* error) {
  std::vector<Request> synthetic = GenerateSynthetic(spec, count, 0.0, seed);
  if (!synthetic.empty()) {
    return synthetic;
  }
  trace::ParsedTrace parsed;
  if (!trace::ReadTraceFile(spec, &parsed, error)) {
    return {};
  }
  return trace::ToRequests(parsed);
}

int CmdConvert(int argc, char** argv) {
  int64_t devno = -1;
  if (argc < 4 || (argc > 4 && !ParseWhole(argv[4], 0, INT_MAX, &devno))) {
    return Usage();
  }
  trace::ParsedTrace parsed;
  std::string error;
  if (!trace::ImportTraceFile(argv[2], static_cast<int>(devno), &parsed, &error) ||
      parsed.records.empty()) {
    std::fprintf(stderr, "error: %s\n", error.empty() ? "no matching records" : error.c_str());
    return 1;
  }
  if (!WriteFileOrReport(argv[3], trace::SerializeTrace(parsed.records))) {
    return 1;
  }
  std::printf("converted %zu records to %s\n", parsed.records.size(), argv[3]);
  return 0;
}

int CmdGen(int argc, char** argv) {
  int64_t count = 20000;
  double rate = 0.0;  // 0: the generator's default rate
  int64_t seed = 1;
  if (argc < 4 || (argc > 4 && !ParseWhole(argv[4], 1, INT64_MAX, &count)) ||
      (argc > 5 && !ParsePositive(argv[5], &rate)) ||
      (argc > 6 && !ParseWhole(argv[6], 0, INT64_MAX, &seed))) {
    return Usage();
  }
  const std::string kind = argv[2];
  const std::string path = argv[3];

  const std::vector<Request> requests =
      GenerateSynthetic(kind, count, rate, static_cast<uint64_t>(seed));
  if (requests.empty()) {
    return Usage();
  }
  if (!WriteFileOrReport(path, trace::SerializeTrace(trace::FromRequests(requests)))) {
    return 1;
  }
  std::printf("wrote %zu requests to %s\n", requests.size(), path.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  std::string error;
  const auto requests = LoadStream(argv[2], 4000, 1, &error);
  if (requests.empty()) {
    std::fprintf(stderr, "error: %s\n", error.empty() ? "empty trace" : error.c_str());
    return 1;
  }
  std::fputs(FormatProfile(AnalyzeWorkload(requests)).c_str(), stdout);
  return 0;
}

// The scheduler named `name` over `device`, or null for an unknown name.
std::unique_ptr<IoScheduler> MakeScheduler(const std::string& name, StorageDevice* device) {
  if (name == "fcfs") return std::make_unique<FcfsScheduler>();
  if (name == "sstf") return std::make_unique<SstfLbnScheduler>();
  if (name == "clook") return std::make_unique<ClookScheduler>();
  if (name == "look") return std::make_unique<LookScheduler>();
  if (name == "sptf") return std::make_unique<SptfScheduler>(device);
  return nullptr;
}

int CmdReplay(int argc, char** argv) {
  double scale = 1.0;
  RunConfig replay;
  int64_t window = replay.window;
  if (argc < 5 || (argc > 5 && !ParsePositive(argv[5], &scale)) ||
      (argc > 6 && !ParseArrivalMode(argv[6], &replay.mode)) ||
      (argc > 7 && !ParseWhole(argv[7], 1, INT_MAX, &window))) {
    return Usage();
  }
  replay.window = static_cast<int>(window);

  std::unique_ptr<StorageDevice> device;
  if (std::strcmp(argv[3], "mems") == 0) {
    device = std::make_unique<MemsDevice>();
  } else if (std::strcmp(argv[3], "disk") == 0) {
    device = std::make_unique<DiskDevice>();
  } else {
    return Usage();
  }
  const std::unique_ptr<IoScheduler> scheduler = MakeScheduler(argv[4], device.get());
  if (scheduler == nullptr) {
    return Usage();
  }

  trace::ParsedTrace parsed;
  std::string error;
  if (!trace::ReadTraceFile(argv[2], &parsed, &error) || parsed.records.empty()) {
    std::fprintf(stderr, "error: %s\n", error.empty() ? "empty trace" : error.c_str());
    return 1;
  }
  // Locality-preserving remap: the trace's footprint rescales onto the
  // device instead of dropping everything past the end.
  parsed.records = trace::RemapToCapacity(parsed.records, device->CapacityBlocks(),
                                          trace::RemapMode::kScale);
  if (scale != 1.0) {
    parsed.records = trace::TimeWarp(parsed.records, scale);
  }
  const std::vector<Request> requests = trace::ToRequests(parsed);

  ExperimentResult result = Run(device.get(), scheduler.get(), requests, replay);
  std::printf("device=%s scheduler=%s scale=%.1f mode=%s requests=%zu\n", device->name(),
              scheduler->name(), scale, ArrivalModeName(replay.mode), requests.size());
  std::printf("mean response:  %.3f ms\n", result.MeanResponseMs());
  std::printf("mean service:   %.3f ms\n", result.MeanServiceMs());
  std::printf("sigma^2/mu^2:   %.3f\n", result.ResponseScv());
  std::printf("p99 response:   %.3f ms\n", result.metrics.ResponseQuantile(0.99));
  std::printf("device busy:    %.1f%%\n",
              100.0 * result.activity.busy_ms / result.makespan_ms);
  return 0;
}

int CmdFidelity(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  std::string json_path;
  bool require_differs = false;
  int64_t count = 4000;
  int64_t seed = 1;
  for (int i = 4; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (std::strcmp(arg, "--json") == 0) {
      json_path = next();
    } else if (std::strcmp(arg, "--require-differs") == 0) {
      require_differs = true;
    } else if (std::strcmp(arg, "--count") == 0) {
      if (!ParseWhole(next(), 1, INT64_MAX, &count)) {
        return Usage();
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!ParseWhole(next(), 0, INT64_MAX, &seed)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }

  std::string error;
  const std::vector<Request> lhs = LoadStream(argv[2], count, static_cast<uint64_t>(seed), &error);
  if (lhs.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", argv[2], error.empty() ? "empty" : error.c_str());
    return 1;
  }
  const std::vector<Request> rhs = LoadStream(argv[3], count, static_cast<uint64_t>(seed), &error);
  if (rhs.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", argv[3], error.empty() ? "empty" : error.c_str());
    return 1;
  }

  const trace::FidelityReport report = trace::CompareStreams(argv[2], lhs, argv[3], rhs);
  for (const trace::MarginalComparison* cmp :
       {&report.arrival_interval, &report.request_size, &report.spatial_locality}) {
    std::printf("%-24s distance=%.4f  %s   (lhs mean %.2f scv %.2f | rhs mean %.2f scv %.2f)\n",
                cmp->name.c_str(), cmp->distance, cmp->differs ? "DIFFERS" : "matches",
                cmp->lhs.mean, cmp->lhs.scv, cmp->rhs.mean, cmp->rhs.scv);
  }
  std::printf("any_differs: %s (threshold %.2f)\n", report.AnyDiffers() ? "yes" : "no",
              trace::kDiffersThreshold);

  if (!json_path.empty()) {
    JsonWriter json;
    report.AppendJson(json);
    if (!WriteFileOrReport(json_path, json.TakeString())) {
      return 1;
    }
  }
  if (require_differs && !report.AnyDiffers()) {
    std::fprintf(stderr, "FIDELITY FAILURE: no marginal differs between %s and %s\n", argv[2],
                 argv[3]);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  if (std::strcmp(argv[1], "gen") == 0) {
    return CmdGen(argc, argv);
  }
  if (std::strcmp(argv[1], "stats") == 0) {
    return CmdStats(argc, argv);
  }
  if (std::strcmp(argv[1], "replay") == 0) {
    return CmdReplay(argc, argv);
  }
  if (std::strcmp(argv[1], "fidelity") == 0) {
    return CmdFidelity(argc, argv);
  }
  if (std::strcmp(argv[1], "convert") == 0) {
    return CmdConvert(argc, argv);
  }
  return Usage();
}
