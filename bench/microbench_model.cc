// google-benchmark microbenchmarks for the hot paths of the simulator:
// the closed-form sled planner, device service computation, positioning
// estimates, and scheduler dispatch.
//
// The MEMS benchmarks time a parked sled: each services one request before
// timing, as every dispatch after a run's first one does. From there the
// Y legs come from the device's Y-leg table, and the X seek (one candidate
// of the planner, SledKinematics::SeekSeconds) is the main cost. A fresh
// sled is off every row boundary, so its Y legs all take the full planner;
// only a run's first dispatch pays that. BM_SledSeekClosedForm and
// BM_SledPlanRestToRest time the same seeks, so their ratio is what the
// one-candidate seek saves over Plan; BM_MemsKeyLegFloor times the floor
// SPTF prunes on before it asks for such a seek. BM_MemsDeviceConstruct
// times building a device once its parameter set's Y-leg master exists,
// as every device after a process's first does. BM_ArrayManagerRequest
// times the array layer end to end: one RAID-5 request's fan-out, member
// service and completion bookkeeping. BM_SerializeTrace and BM_ParseTrace
// time the MSTKTRACE text layer that trace replay pays once per trace, on
// one whole 20k-record document; their items are records.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/array/array_manager.h"
#include "src/disk/disk_device.h"
#include "src/fault/injector.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/trace/format.h"
#include "src/trace/scenarios.h"
#include "src/workload/random_workload.h"

namespace {

using namespace mstk;

// Rest-to-rest seeks between uniform random offsets, each starting where
// the last one ended.
template <typename Seek>
void RunSeeks(benchmark::State& state, Seek seek) {
  Rng rng(1);
  double from = -40e-6;
  for (auto _ : state) {
    const double to = rng.Uniform(-50e-6, 50e-6);
    benchmark::DoNotOptimize(seek(from, to));
    from = to;
  }
}

void BM_SledSeekClosedForm(benchmark::State& state) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  RunSeeks(state, [&](double from, double to) { return kin.SeekSeconds(from, to); });
}
BENCHMARK(BM_SledSeekClosedForm);

void BM_SledPlanRestToRest(benchmark::State& state) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  RunSeeks(state, [&](double from, double to) { return kin.Plan(from, 0.0, to, 0.0).t_total; });
}
BENCHMARK(BM_SledPlanRestToRest);

// Parks the sled on a row boundary, as after any serviced request.
void Park(MemsDevice* device) {
  Request req;
  req.block_count = 8;
  (void)device->ServiceRequest(req, 0.0);
}

// The floor on the key leg from a parked sled to random cylinders.
void BM_MemsKeyLegFloor(benchmark::State& state) {
  MemsDevice device;
  Park(&device);
  Rng rng(7);
  const int64_t cylinders = device.params().cylinders();
  for (auto _ : state) {
    const auto key = static_cast<int32_t>(rng.UniformInt(cylinders));
    benchmark::DoNotOptimize(device.KeyLegFloorMs(key));
  }
}
BENCHMARK(BM_MemsKeyLegFloor);

void BM_MemsDeviceConstruct(benchmark::State& state) {
  const MemsDevice first;  // fills the master
  for (auto _ : state) {
    MemsDevice device;
    benchmark::DoNotOptimize(device.CapacityBlocks());
  }
}
BENCHMARK(BM_MemsDeviceConstruct);

void BM_SledTravelMovingStart(benchmark::State& state) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(2);
  for (auto _ : state) {
    const double y0 = rng.Uniform(-48e-6, 48e-6);
    const double y1 = rng.Uniform(-48e-6, 48e-6);
    benchmark::DoNotOptimize(kin.TravelSeconds(y0, 0.028, y1, -0.028));
  }
}
BENCHMARK(BM_SledTravelMovingStart);

void BM_MemsServiceRequest4K(benchmark::State& state) {
  MemsDevice device;
  Park(&device);
  Rng rng(3);
  Request req;
  req.block_count = 8;
  for (auto _ : state) {
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    benchmark::DoNotOptimize(device.ServiceRequest(req, 0.0));
  }
}
BENCHMARK(BM_MemsServiceRequest4K);

// The scalar estimate computes every leg with the planner: the X seek
// once per read direction, and both Y legs.
void BM_MemsEstimatePositioning(benchmark::State& state) {
  MemsDevice device;
  Park(&device);
  Rng rng(4);
  Request req;
  req.block_count = 8;
  for (auto _ : state) {
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    benchmark::DoNotOptimize(device.EstimatePositioningMs(req, 0.0));
  }
}
BENCHMARK(BM_MemsEstimatePositioning);

void BM_DiskServiceRequest4K(benchmark::State& state) {
  DiskDevice device;
  Rng rng(5);
  Request req;
  req.block_count = 8;
  double now = 0.0;
  for (auto _ : state) {
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    now += device.ServiceRequest(req, now);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_DiskServiceRequest4K);

// One SPTF dispatch from a parked sled: the outward cylinder walk over a
// queue of `depth` random requests.
void BM_SptfPopQueue(benchmark::State& state) {
  MemsDevice device;
  Park(&device);
  Rng rng(6);
  const int64_t depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    SptfScheduler sched(&device);
    for (int64_t i = 0; i < depth; ++i) {
      Request req;
      req.id = i;
      req.block_count = 8;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
      sched.Add(req);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(sched.Pop(0.0));
  }
}
BENCHMARK(BM_SptfPopQueue)->Arg(16)->Arg(64)->Arg(256);

// One array request through ArrayManager in steady state: the Submit and
// every simulator event up to the next arrival. The array has the shape of
// perfbench's array_rebuild (RAID-5 over 16 active MEMS members and 2
// spares, SPTF members with fault injectors, 1500 req/s) but no member
// failure, and transient faults only, so that it stays optimal however
// long the bench runs.
void BM_ArrayManagerRequest(benchmark::State& state) {
  constexpr int kActive = 16;
  constexpr int kDevices = kActive + 2;
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<StorageDevice*> facing;
  std::vector<FaultModel*> models;
  for (int d = 0; d < kDevices; ++d) {
    devices.push_back(std::make_unique<MemsDevice>());
    facing.push_back(devices.back().get());
    FaultInjectorConfig fault;
    fault.transient_rate = 0.01;
    injectors.push_back(std::make_unique<FaultInjector>(
        fault, devices.back()->CapacityBlocks(), 1000 + static_cast<uint64_t>(d)));
    models.push_back(injectors.back().get());
  }
  ArrayManagerConfig config;
  config.raid = RaidConfig{RaidLevel::kRaid5, 64};
  config.active_members = kActive;
  config.member_extent_blocks = 32768;
  Simulator sim;
  MetricsCollector metrics;
  ArrayManager manager(&sim, config, facing, MakeSptfFactory(), &metrics);
  RecoveryPolicy recovery;
  recovery.max_retries = 5;
  manager.AttachFaultModels(models, recovery);

  RandomWorkloadConfig workload;
  workload.arrival_rate_per_s = 1500.0;
  workload.request_count = 20000;
  workload.capacity_blocks = manager.CapacityBlocks();
  Rng rng(8);
  const std::vector<Request> stream = GenerateRandomWorkload(workload, rng);
  // Replays the stream end to end, shifted in time on each pass.
  size_t next = 0;
  TimeMs pass_start_ms = 0.0;
  const auto submit_next = [&] {
    if (next == stream.size()) {
      next = 0;
      pass_start_ms += stream.back().arrival_ms;
    }
    Request req = stream[next++];
    req.arrival_ms += pass_start_ms;
    sim.RunUntil(req.arrival_ms);
    manager.Submit(req);
  };
  for (int i = 0; i < 2000; ++i) {
    submit_next();
  }
  for (auto _ : state) {
    submit_next();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArrayManagerRequest);

// The oltp_burst scenario at perfbench's trace_replay size.
std::vector<trace::TraceRecord> OltpBurstRecords() {
  trace::ScenarioConfig config;
  config.request_count = 20000;
  return trace::GenerateScenario("oltp_burst", config).records;
}

void BM_SerializeTrace(benchmark::State& state) {
  const std::vector<trace::TraceRecord> records = OltpBurstRecords();
  int64_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = trace::SerializeTrace(records);
    benchmark::DoNotOptimize(doc.data());
    bytes = static_cast<int64_t>(doc.size());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_SerializeTrace);

void BM_ParseTrace(benchmark::State& state) {
  const std::string doc = trace::SerializeTrace(OltpBurstRecords());
  int64_t records = 0;
  for (auto _ : state) {
    trace::ParsedTrace parsed;
    std::string error;
    benchmark::DoNotOptimize(trace::ParseTrace(doc, &parsed, &error));
    benchmark::DoNotOptimize(parsed.records.data());
    records = static_cast<int64_t>(parsed.records.size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(doc.size()));
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ParseTrace);

}  // namespace

BENCHMARK_MAIN();
