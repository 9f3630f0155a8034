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
// one-candidate seek saves over Plan.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"

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

// Parks the sled on a row boundary, as after any serviced request.
void Park(MemsDevice* device) {
  Request req;
  req.block_count = 8;
  (void)device->ServiceRequest(req, 0.0);
}

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

}  // namespace

BENCHMARK_MAIN();
