// events_per_sec — raw simulator-kernel throughput microbench.
//
// Measures wall-clock events/sec (and simulated IOs/sec) of the
// discrete-event kernel itself on four deterministic configurations:
//
//   open_loop    fixed-latency device + FCFS: pure kernel hot path
//                (event queue, driver dispatch, metrics bookkeeping)
//   closed_loop  completion-driven arrivals with think-time timers
//   faults       open loop with online fault injection, retries, and
//                idle-time region rebuild traffic
//   open_loop_mems  MEMS device model + SPTF: full-model reference point
//
// Every configuration replays the identical request stream on every run
// (fixed seed, virtual time), so the event *count* is deterministic; only
// the wall-clock rate varies by machine. CI gates on a ratio floor against
// the committed BENCH_baseline.json entry (see scripts/check_bench_tolerance.py
// bench-check), so kernel regressions fail even though sweep means — which
// only guard the model, not the engine — stay unchanged.
//
//   events_per_sec [--repeat N] [--scale X] [--json PATH]
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/experiment.h"
#include "src/core/request.h"
#include "src/core/storage_device.h"
#include "src/fault/injector.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

// Minimal constant-latency device: makes the kernel (queue, driver, metrics)
// the bottleneck, so the measured rate tracks engine speed, not device math.
class FixedLatencyDevice final : public StorageDevice {
 public:
  explicit FixedLatencyDevice(TimeMs service_ms = 0.05) : service_ms_(service_ms) {}

  const char* name() const override { return "fixed"; }
  int64_t CapacityBlocks() const override { return 1 << 24; }

  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                                      ServiceBreakdown* breakdown) override {
    (void)start_ms;
    if (breakdown != nullptr) {
      breakdown->transfer_ms = service_ms_;
      breakdown->phases[Phase::kTransfer] = service_ms_;
    }
    activity_.busy_ms += service_ms_;
    activity_.transfer_ms += service_ms_;
    activity_.requests++;
    if (req.is_read()) {
      activity_.blocks_read += req.block_count;
    } else {
      activity_.blocks_written += req.block_count;
    }
    return service_ms_;
  }

  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override {
    (void)req;
    (void)at_ms;
    return 0.0;
  }

  void Reset() override { activity_ = DeviceActivity{}; }

 private:
  TimeMs service_ms_;
};

std::vector<Request> MakeStream(int64_t count, double rate_per_s, int64_t capacity,
                                uint64_t seed) {
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate_per_s;
  config.request_count = count;
  config.capacity_blocks = capacity;
  Rng rng(seed);
  return GenerateRandomWorkload(config, rng);
}

// Closed-loop demand in submission order: 4 KB accesses, two reads to one
// write. Arrival times are stamped by the run.
std::vector<Request> MakeClosedStream(int64_t count, int64_t capacity, uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Request& req = requests[static_cast<size_t>(i)];
    req.id = i;
    req.type = rng.NextDouble() < 0.67 ? IoType::kRead : IoType::kWrite;
    req.lbn = rng.UniformInt(capacity - 8);
    req.block_count = 8;
  }
  return requests;
}

struct ConfigResult {
  std::string name;
  int64_t events = 0;
  int64_t ios = 0;
  double best_events_per_sec = 0.0;
  double best_ios_per_sec = 0.0;
};

// `body` performs one complete run and returns its result.
template <typename Body>
ConfigResult Measure(const std::string& name, int repeat, const Body& body) {
  ConfigResult result;
  result.name = name;
  // One untimed warmup, then `repeat` timed runs; keep the best rate (least
  // scheduler/cache interference — the runs are identical by construction).
  (void)body();
  for (int i = 0; i < repeat; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const ExperimentResult run = body();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    result.events = run.events;
    result.ios = run.metrics.completed();
    if (wall_s > 0.0) {
      const double eps = static_cast<double>(result.events) / wall_s;
      if (eps > result.best_events_per_sec) {
        result.best_events_per_sec = eps;
        result.best_ios_per_sec = static_cast<double>(result.ios) / wall_s;
      }
    }
  }
  return result;
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--repeat N] [--scale X] [--json PATH]\n", argv0);
  return 2;
}

}  // namespace
}  // namespace mstk

int main(int argc, char** argv) {
  using namespace mstk;

  int repeat = 3;
  double scale = 1.0;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage(argv[0]));
      return argv[++i];
    };
    if (std::strcmp(arg, "--repeat") == 0) {
      int64_t whole = 0;
      if (!ParseWhole(next(), 1, INT_MAX, &whole)) return Usage(argv[0]);
      repeat = static_cast<int>(whole);
    } else if (std::strcmp(arg, "--scale") == 0) {
      if (!ParsePositive(next(), &scale)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = next();
    } else {
      return Usage(argv[0]);
    }
  }

  const auto n = [scale](int64_t full) {
    return std::max<int64_t>(static_cast<int64_t>(static_cast<double>(full) * scale), 1);
  };

  // Fixed-latency device serves 20k IOs/s; 15k/s arrivals keep a busy but
  // stable queue. Streams are generated outside the timed region.
  const int64_t fixed_capacity = 1 << 24;
  const auto open_stream = MakeStream(n(400000), 15000.0, fixed_capacity, 42);
  const auto closed_stream = MakeClosedStream(n(400000), fixed_capacity, 45);
  const auto fault_stream = MakeStream(n(150000), 15000.0, fixed_capacity, 43);

  MemsDevice mems;
  const auto mems_stream = MakeStream(n(100000), 1200.0, mems.CapacityBlocks(), 44);

  std::vector<ConfigResult> results;
  results.push_back(Measure("open_loop", repeat, [&] {
    FixedLatencyDevice device;
    FcfsScheduler scheduler;
    return Run(&device, &scheduler, open_stream);
  }));
  results.push_back(Measure("closed_loop", repeat, [&] {
    FixedLatencyDevice device;
    FcfsScheduler scheduler;
    RunConfig config;
    config.mode = ArrivalMode::kClosed;
    config.window = 16;
    config.think_ms = 0.02;
    return Run(&device, &scheduler, closed_stream, config);
  }));
  results.push_back(Measure("faults", repeat, [&] {
    FixedLatencyDevice device;
    FcfsScheduler scheduler;
    FaultInjectorConfig faults;
    faults.transient_rate = 0.02;
    faults.lost_completion_rate = 0.002;
    faults.permanent_rate = 0.0005;
    faults.spares = 64;
    FaultInjector injector(faults, device.CapacityBlocks(), /*seed=*/46);
    RunConfig config;
    config.fault_model = &injector;
    return Run(&device, &scheduler, fault_stream, config);
  }));
  results.push_back(Measure("open_loop_mems", repeat, [&] {
    MemsDevice device;
    SptfScheduler scheduler(&device);
    return Run(&device, &scheduler, mems_stream);
  }));

  std::printf("%-16s %12s %12s %14s %14s\n", "config", "events", "ios", "events/sec",
              "ios/sec");
  for (const ConfigResult& r : results) {
    std::printf("%-16s %12lld %12lld %14.0f %14.0f\n", r.name.c_str(),
                static_cast<long long>(r.events), static_cast<long long>(r.ios),
                r.best_events_per_sec, r.best_ios_per_sec);
  }

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.KV("bench", std::string("events_per_sec"));
    json.KV("repeat", static_cast<int64_t>(repeat));
    json.Key("configs");
    json.BeginObject();
    for (const ConfigResult& r : results) {
      json.Key(r.name);
      json.BeginObject();
      json.KV("events", r.events);
      json.KV("ios", r.ios);
      json.KV("events_per_sec", r.best_events_per_sec);
      json.KV("ios_per_sec", r.best_ios_per_sec);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
    if (!WriteFileOrReport(json_path, json.TakeString())) {
      return 1;
    }
  }
  return 0;
}
