// mstk_trace — command-line trace tooling.
//
//   mstk_trace gen <random|cello|tpcc> <out.trace> [count] [rate] [seed]
//       Generate a synthetic workload and write it as an ASCII trace.
//   mstk_trace stats <in.trace>
//       Print arrival/size/locality statistics for a trace.
//   mstk_trace replay <in.trace> <mems|disk> <fcfs|sstf|clook|look|sptf>
//              [scale] [open|closed|hybrid] [window]
//       Replay a trace against a device model under a scheduler and print
//       the paper's metrics (mean response, sigma^2/mu^2, tail). Traces in
//       the v1 MSTKTRACE format are detected by their magic and remapped
//       onto the device's capacity; anything else parses as a legacy ASCII
//       trace. The optional arrival mode (default open) drives the replay
//       through the run harness's arrival control (src/core/experiment.h).
//   mstk_trace fidelity <lhs> <rhs> [--json PATH] [--require-differs]
//              [--count N] [--seed S]
//       Compare two workload streams on the arrival-interval, request-size,
//       and spatial-locality marginals. <lhs>/<rhs> are trace files, or one
//       of the synthetic generator names random|cello|tpcc (generated at
//       --count/--seed). --require-differs exits nonzero unless at least one
//       marginal differs — CI uses it to prove the reporter detects the gap
//       between the replayed oltp_burst scenario and the steady tpcc
//       synthetic.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

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
#include "src/workload/trace.h"

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
               "  mstk_trace convert <in.disksim> <out.trace> [devno]\n");
  return 2;
}

// True when `path` starts with the v1 trace magic.
bool HasV1Magic(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[sizeof(trace::kTraceMagic)] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  return n == sizeof(buf) - 1 && std::memcmp(buf, trace::kTraceMagic, n) == 0;
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

// Loads a fidelity comparison stream: a synthetic generator name, a v1
// MSTKTRACE document, or a legacy ASCII trace.
std::vector<Request> LoadStream(const std::string& spec, int64_t count, uint64_t seed,
                                std::string* error) {
  std::vector<Request> synthetic = GenerateSynthetic(spec, count, 0.0, seed);
  if (!synthetic.empty()) {
    return synthetic;
  }
  if (HasV1Magic(spec.c_str())) {
    trace::ParsedTrace parsed;
    if (!trace::ReadTraceFile(spec, &parsed, error)) {
      return {};
    }
    return trace::ToRequests(parsed);
  }
  return ReadTraceFile(spec, error);
}

int CmdConvert(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  const int devno = argc > 4 ? std::atoi(argv[4]) : -1;
  std::string error;
  const auto requests = ReadDiskSimTrace(argv[2], devno, &error);
  if (requests.empty()) {
    std::fprintf(stderr, "error: %s\n",
                 error.empty() ? "no matching records" : error.c_str());
    return 1;
  }
  if (!WriteTraceFile(argv[3], requests)) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf("converted %zu requests (devno %d) to %s\n", requests.size(), devno,
              argv[3]);
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  const std::string kind = argv[2];
  const std::string path = argv[3];
  const int64_t count = argc > 4 ? std::atoll(argv[4]) : 20000;
  const double rate = argc > 5 ? std::atof(argv[5]) : 0.0;
  const uint64_t seed = argc > 6 ? static_cast<uint64_t>(std::atoll(argv[6])) : 1;

  const std::vector<Request> requests = GenerateSynthetic(kind, count, rate, seed);
  if (requests.empty()) {
    return Usage();
  }
  if (!WriteTraceFile(path, requests)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
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
  // LoadStream understands all three spellings: v1 MSTKTRACE documents,
  // legacy ASCII traces, and synthetic generator names.
  const auto requests = LoadStream(argv[2], 4000, 1, &error);
  if (requests.empty()) {
    std::fprintf(stderr, "error: %s\n", error.empty() ? "empty trace" : error.c_str());
    return 1;
  }
  std::fputs(FormatProfile(AnalyzeWorkload(requests)).c_str(), stdout);
  return 0;
}

int CmdReplay(int argc, char** argv) {
  if (argc < 5) {
    return Usage();
  }
  const double scale = argc > 5 ? std::atof(argv[5]) : 1.0;
  RunConfig replay;
  if (argc > 6 && !ParseArrivalMode(argv[6], &replay.mode)) {
    return Usage();
  }
  if (argc > 7) {
    replay.window = std::atoi(argv[7]);
    if (replay.window < 1) {
      return Usage();
    }
  }

  std::unique_ptr<StorageDevice> device;
  if (std::strcmp(argv[3], "mems") == 0) {
    device = std::make_unique<MemsDevice>();
  } else if (std::strcmp(argv[3], "disk") == 0) {
    device = std::make_unique<DiskDevice>();
  } else {
    return Usage();
  }

  std::string error;
  std::vector<Request> requests;
  if (HasV1Magic(argv[2])) {
    trace::ParsedTrace parsed;
    if (!trace::ReadTraceFile(argv[2], &parsed, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    // Locality-preserving remap: the scenario's footprint rescales onto the
    // device instead of dropping everything past the end.
    parsed.records = trace::RemapToCapacity(parsed.records, device->CapacityBlocks(),
                                            trace::RemapMode::kScale);
    requests = trace::ToRequests(parsed);
    if (scale != 1.0) {
      requests = ScaleTrace(requests, scale);
    }
  } else {
    requests = ReadTraceFile(argv[2], &error);
    if (requests.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (scale != 1.0) {
      requests = ScaleTrace(requests, scale);
    }
    requests = ClampTraceToCapacity(requests, device->CapacityBlocks());
  }

  std::unique_ptr<IoScheduler> scheduler;
  const std::string sched_name = argv[4];
  if (sched_name == "fcfs") {
    scheduler = std::make_unique<FcfsScheduler>();
  } else if (sched_name == "sstf") {
    scheduler = std::make_unique<SstfLbnScheduler>();
  } else if (sched_name == "clook") {
    scheduler = std::make_unique<ClookScheduler>();
  } else if (sched_name == "look") {
    scheduler = std::make_unique<LookScheduler>();
  } else if (sched_name == "sptf") {
    scheduler = std::make_unique<SptfScheduler>(device.get());
  } else {
    return Usage();
  }

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
  uint64_t seed = 1;
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
      count = std::atoll(next());
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = std::strtoull(next(), nullptr, 10);
    } else {
      return Usage();
    }
  }

  std::string error;
  const std::vector<Request> lhs = LoadStream(argv[2], count, seed, &error);
  if (lhs.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", argv[2], error.empty() ? "empty" : error.c_str());
    return 1;
  }
  const std::vector<Request> rhs = LoadStream(argv[3], count, seed, &error);
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
