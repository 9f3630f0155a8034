// Online fault injection & recovery (§6): driver retry/timeout/remap paths,
// spare-tip identity timing, rebuild-under-load, and determinism with
// injection enabled.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/background.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/fault_model.h"
#include "src/core/trial_runner.h"
#include "src/fault/injector.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

// Deterministic test double: scripts each attempt's fate directly, so tests
// can assert exact counter values.
class ScriptedFaultModel : public FaultModel {
 public:
  explicit ScriptedFaultModel(std::function<FaultType(const Request&, int)> judge)
      : judge_(std::move(judge)) {}

  FaultType JudgeAttempt(const Request& req, int attempt) override {
    return judge_(req, attempt);
  }
  bool OnPermanentFault(const Request&) override { return spares_-- > 0; }
  void MapPhysical(int64_t lbn, int32_t blocks,
                   std::vector<IoExtent>* out) const override {
    out->push_back(IoExtent{lbn, blocks});
  }
  bool degraded() const override { return spares_ < 0; }

  void set_spares(int64_t n) { spares_ = n; }

 private:
  std::function<FaultType(const Request&, int)> judge_;
  int64_t spares_ = 1 << 20;
};

std::vector<Request> SmallWorkload(MemsDevice& device, double rate, int64_t n,
                                   uint64_t seed = 1) {
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate;
  config.request_count = n;
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(seed);
  return GenerateRandomWorkload(config, rng);
}

TEST(FaultRecoveryTest, TransientErrorRetriedToSuccessWithExactCounts) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  // Every request fails its first attempt, then succeeds.
  ScriptedFaultModel model([](const Request&, int attempt) {
    return attempt == 0 ? FaultType::kTransientError : FaultType::kNone;
  });
  driver.EnableRecovery(&model, RecoveryPolicy{});

  const int64_t kRequests = 50;
  const std::vector<Request> workload = SmallWorkload(device, 100.0, kRequests);
  for (const Request& req : workload) {
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
  }
  sim.Run();

  EXPECT_EQ(metrics.completed(), kRequests);
  EXPECT_EQ(metrics.fault().transient_errors, kRequests);
  EXPECT_EQ(metrics.fault().retries, kRequests);
  EXPECT_EQ(metrics.fault().failed_requests, 0);
  EXPECT_EQ(metrics.fault().timeouts, 0);
  // The failed attempt + backoff landed in the fault phase of every request.
  EXPECT_EQ(metrics.phase(Phase::kFault).count(), kRequests);
  EXPECT_GT(metrics.phase(Phase::kFault).mean(), 0.0);
  // Phase tiling survives recovery: service phases still sum to service time.
  double phase_mean_sum = 0.0;
  for (int p = static_cast<int>(Phase::kSeekX); p < kPhaseCount; ++p) {
    phase_mean_sum += metrics.phase(static_cast<Phase>(p)).mean();
  }
  EXPECT_NEAR(phase_mean_sum, metrics.service_time().mean(), 1e-9);
}

TEST(FaultRecoveryTest, LostCompletionRecoversThroughTimeout) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  ScriptedFaultModel model([](const Request&, int attempt) {
    return attempt == 0 ? FaultType::kLostCompletion : FaultType::kNone;
  });
  RecoveryPolicy policy;
  policy.timeout_ms = 25.0;
  driver.EnableRecovery(&model, policy);

  Request req;
  req.lbn = 1000;
  req.block_count = 8;
  sim.ScheduleAt(0.0, [&] { driver.Submit(req); });
  sim.Run();

  EXPECT_EQ(metrics.completed(), 1);
  EXPECT_EQ(metrics.fault().timeouts, 1);
  EXPECT_EQ(metrics.fault().retries, 1);
  EXPECT_EQ(metrics.fault().failed_requests, 0);
  // The request waited out the full watchdog window before its retry.
  EXPECT_GE(metrics.response_time().mean(), policy.timeout_ms);
}

TEST(FaultRecoveryTest, RetryBudgetExhaustionFailsTheRequest) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  ScriptedFaultModel model(
      [](const Request&, int) { return FaultType::kTransientError; });
  RecoveryPolicy policy;
  policy.max_retries = 2;
  driver.EnableRecovery(&model, policy);

  bool saw_failed = false;
  driver.AddCompletionListener(
      [&](const Request& r, TimeMs) { saw_failed = r.failed; });

  Request req;
  req.lbn = 1000;
  req.block_count = 8;
  sim.ScheduleAt(0.0, [&] { driver.Submit(req); });
  sim.Run();

  // Attempts 0,1,2: the first two are retried, the third exhausts the budget.
  EXPECT_EQ(metrics.completed(), 1);
  EXPECT_TRUE(saw_failed);
  EXPECT_EQ(metrics.fault().transient_errors, 3);
  EXPECT_EQ(metrics.fault().retries, 2);
  EXPECT_EQ(metrics.fault().failed_requests, 1);
}

TEST(FaultRecoveryTest, PermanentFaultConsumesSparesThenDegrades) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  // First attempt of every request hits a permanent fault.
  ScriptedFaultModel model([](const Request&, int attempt) {
    return attempt == 0 ? FaultType::kPermanentFailure : FaultType::kNone;
  });
  model.set_spares(2);
  driver.EnableRecovery(&model, RecoveryPolicy{});
  std::vector<std::pair<int64_t, int32_t>> rebuilds;
  driver.set_rebuild_sink(
      [&](int64_t lbn, int32_t blocks) { rebuilds.emplace_back(lbn, blocks); });

  // Four well-separated requests: two remap, then spares run out.
  std::vector<Request> workload(4);
  for (int i = 0; i < 4; ++i) {
    Request& req = workload[static_cast<size_t>(i)];
    req.lbn = 10000 * (i + 1);
    req.block_count = 8;
    req.arrival_ms = 100.0 * i;
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
  }
  sim.Run();

  EXPECT_EQ(metrics.completed(), 4);
  EXPECT_EQ(metrics.fault().permanent_faults, 4);
  EXPECT_EQ(metrics.fault().remaps, 2);
  EXPECT_EQ(rebuilds.size(), 2u);
  EXPECT_TRUE(model.degraded());
  // Once degraded, retried attempts pay the device's surcharge.
  EXPECT_GT(metrics.fault().degraded_ms, 0.0);
}

// A Driver built without a collector keeps the fault counters a collector
// would hold, bit for bit, background (rebuild) completions included, and
// completes every request at the same time.
TEST(FaultRecoveryTest, DriverWithoutCollectorKeepsTheSameFaultCounters) {
  struct Outcome {
    FaultCounters fault;
    std::vector<std::pair<int64_t, uint64_t>> completions;  // (id, time bits)
  };
  const auto run = [](bool with_collector) {
    MemsDevice device;
    SptfScheduler sched(&device);
    MetricsCollector metrics;
    Simulator sim;
    Driver driver(&sim, &device, &sched, with_collector ? &metrics : nullptr);
    FaultInjectorConfig faults;
    faults.transient_rate = 0.05;
    faults.lost_completion_rate = 0.01;
    faults.permanent_rate = 0.01;
    faults.spares = 3;  // runs out, so later attempts pay the degraded surcharge
    FaultInjector injector(faults, device.CapacityBlocks(), /*seed=*/17);
    driver.EnableRecovery(&injector, RecoveryPolicy{});
    std::vector<Request> rebuilds;
    for (int i = 0; i < 40; ++i) {
      Request task;
      task.lbn = 200000 + 64 * i;
      task.block_count = 64;
      rebuilds.push_back(task);
    }
    BackgroundRunner background(&sim, &driver, rebuilds, /*idle_delay_ms=*/0.5);
    Outcome out;
    driver.AddCompletionListener([&out](const Request& req, TimeMs now) {
      out.completions.emplace_back(req.id, std::bit_cast<uint64_t>(now));
    });
    const std::vector<Request> workload = SmallWorkload(device, 400.0, 600);
    for (const Request& req : workload) {
      const Request* arrival = &req;
      sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
    }
    sim.Run();
    EXPECT_TRUE(background.Done());
    out.fault = driver.fault();
    if (with_collector) {
      EXPECT_EQ(&driver.fault(), &metrics.fault());
    }
    return out;
  };
  const Outcome collected = run(true);
  const Outcome bare = run(false);
  EXPECT_EQ(bare.completions, collected.completions);
  const FaultCounters& a = collected.fault;
  const FaultCounters& b = bare.fault;
  EXPECT_GT(a.transient_errors, 0);
  EXPECT_GT(a.timeouts, 0);
  EXPECT_GT(a.permanent_faults, a.remaps);
  EXPECT_EQ(a.rebuild_ios, 40);
  EXPECT_GT(a.degraded_ms, 0.0);
  EXPECT_EQ(b.transient_errors, a.transient_errors);
  EXPECT_EQ(b.timeouts, a.timeouts);
  EXPECT_EQ(b.retries, a.retries);
  EXPECT_EQ(b.permanent_faults, a.permanent_faults);
  EXPECT_EQ(b.remaps, a.remaps);
  EXPECT_EQ(b.failed_requests, a.failed_requests);
  EXPECT_EQ(b.rebuild_ios, a.rebuild_ios);
  EXPECT_EQ(std::bit_cast<uint64_t>(b.rebuild_ms), std::bit_cast<uint64_t>(a.rebuild_ms));
  EXPECT_EQ(std::bit_cast<uint64_t>(b.degraded_ms), std::bit_cast<uint64_t>(a.degraded_ms));
}

TEST(FaultInjectorTest, SpareTipRemapPreservesIdentityTiming) {
  MemsDevice pristine;
  MemsDevice remapped;
  FaultInjectorConfig config;
  config.remap_style = RemapStyle::kMemsSpareTip;
  FaultInjector injector(config, pristine.CapacityBlocks(), /*seed=*/7);

  Request req;
  req.lbn = 123456;
  req.block_count = 64;
  ASSERT_TRUE(injector.OnPermanentFault(req));

  // §6.1.1: the spare tip serves the same tip sector, so the remapped extent
  // is the identity mapping and its service time is unchanged.
  std::vector<IoExtent> extents;
  injector.MapPhysical(req.lbn, req.block_count, &extents);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].lbn, req.lbn);
  EXPECT_EQ(extents[0].blocks, req.block_count);
  EXPECT_DOUBLE_EQ(pristine.ServiceRequest(req, 0.0),
                   remapped.ServiceRequest(req, 0.0));

  // Contrast: disk spare-region remapping moves the defective block, so the
  // mapping is no longer the identity.
  FaultInjectorConfig disk_config;
  disk_config.remap_style = RemapStyle::kDiskSpareRegion;
  FaultInjector disk_injector(disk_config, pristine.CapacityBlocks(), /*seed=*/7);
  ASSERT_TRUE(disk_injector.OnPermanentFault(req));
  std::vector<IoExtent> disk_extents;
  disk_injector.MapPhysical(req.lbn, req.block_count, &disk_extents);
  EXPECT_GT(disk_extents.size(), 1u);
}

TEST(FaultExperimentTest, RebuildUnderLoadDrainsWithoutStarvingForeground) {
  MemsDevice device;
  SptfScheduler sched(&device);
  FaultInjectorConfig faults;
  faults.permanent_rate = 0.005;
  faults.spares = 256;
  FaultInjector injector(faults, device.CapacityBlocks(), /*seed=*/3);
  RunConfig config;
  config.fault_model = &injector;
  const int64_t kRequests = 2000;

  const auto requests = SmallWorkload(device, 600.0, kRequests, 11);
  const ExperimentResult faulted = mstk::Run(&device, &sched, requests, config);

  // Every foreground request completed (rebuild traffic is excluded from
  // the foreground metrics), and every remap queued a full region rebuild
  // that drained on idle.
  EXPECT_EQ(faulted.metrics.completed(), kRequests);
  const FaultCounters& fc = faulted.metrics.fault();
  ASSERT_GT(fc.remaps, 0);
  const int64_t chunks_per_region = kRebuildRegionBlocks / kRebuildChunkBlocks;
  EXPECT_GE(fc.rebuild_ios, fc.remaps * chunks_per_region);
  EXPECT_LE(fc.rebuild_ios, fc.remaps * (chunks_per_region + 1));
  EXPECT_GT(fc.rebuild_ms, 0.0);

  // Idle-time rebuild injection must not starve the foreground: response
  // stays within a small factor of the fault-free run of the same workload.
  MemsDevice clean_device;
  SptfScheduler clean_sched(&clean_device);
  const ExperimentResult clean = mstk::Run(&clean_device, &clean_sched, requests);
  EXPECT_LT(faulted.MeanResponseMs(), 3.0 * clean.MeanResponseMs());
}

TEST(FaultExperimentTest, InjectionIsDeterministicAcrossJobCounts) {
  auto trial = [](uint64_t seed, int64_t) {
    MemsDevice device;
    SptfScheduler sched(&device);
    FaultInjectorConfig faults;
    faults.transient_rate = 0.02;
    faults.permanent_rate = 0.002;
    faults.lost_completion_rate = 0.002;
    FaultInjector injector(faults, device.CapacityBlocks(), DeriveTrialSeed(seed, 0x0fa17));
    RunConfig config;
    config.fault_model = &injector;
    RandomWorkloadConfig wl;
    wl.arrival_rate_per_s = 600.0;
    wl.request_count = 1000;
    wl.capacity_blocks = device.CapacityBlocks();
    Rng rng(seed);
    const auto requests = GenerateRandomWorkload(wl, rng);
    return mstk::Run(&device, &sched, requests, config);
  };

  auto run_json = [&](int jobs) {
    TrialRunner::Options opts;
    opts.trials = 4;
    opts.jobs = jobs;
    opts.base_seed = 42;
    const AggregateResult agg = TrialRunner::RunExperiments(opts, trial);
    JsonWriter json;
    agg.AppendJson(json);
    return json.TakeString();
  };

  const std::string serial = run_json(1);
  const std::string parallel = run_json(2);
  EXPECT_EQ(serial, parallel);
  // And the run actually injected something, so the check is not vacuous.
  EXPECT_NE(serial.find("fault_transient_errors"), std::string::npos);
}

TEST(FaultExperimentTest, FaultFreeInjectorMatchesPlainOpenLoop) {
  // A fault model with all rates zero must reproduce the plain driver's
  // numbers bit-for-bit (the no-fault path is the old code path).
  MemsDevice d1;
  FcfsScheduler s1;
  const auto requests = SmallWorkload(d1, 600.0, 1000, 5);
  const ExperimentResult plain = mstk::Run(&d1, &s1, requests);

  MemsDevice d2;
  FcfsScheduler s2;
  const FaultInjectorConfig faults;  // all rates zero
  FaultInjector injector(faults, d2.CapacityBlocks(), /*seed=*/9);
  RunConfig config;
  config.fault_model = &injector;
  const ExperimentResult faulted = mstk::Run(&d2, &s2, requests, config);

  EXPECT_EQ(plain.metrics.completed(), faulted.metrics.completed());
  EXPECT_DOUBLE_EQ(plain.MeanResponseMs(), faulted.MeanResponseMs());
  EXPECT_DOUBLE_EQ(plain.MeanServiceMs(), faulted.MeanServiceMs());
  EXPECT_DOUBLE_EQ(plain.makespan_ms, faulted.makespan_ms);
}

TEST(FaultExperimentTest, WindowedModesFreeSlotsOnFailureButNotOnRebuild) {
  // Failed requests must free their window slots (or the run stalls short
  // of every request), and rebuild completions must never open one (or more
  // than `window` foreground requests could queue).
  const int64_t kRequests = 2000;
  const int kWindow = 2;
  for (const ArrivalMode mode : {ArrivalMode::kHybrid, ArrivalMode::kClosed}) {
    MemsDevice device;
    SptfScheduler sched(&device);
    // 300 req/s leaves hybrid idle gaps; closed mode idles through its
    // think time. Either way the rebuilds get idle time to run in.
    const auto requests = SmallWorkload(device, 300.0, kRequests, 13);
    FaultInjectorConfig faults;
    faults.transient_rate = 0.3;  // 0.3^4 per request exhausts the 3 retries
    faults.permanent_rate = 0.01;
    faults.spares = 256;
    FaultInjector injector(faults, device.CapacityBlocks(), /*seed=*/5);
    RunConfig config;
    config.mode = mode;
    config.window = kWindow;
    config.think_ms = mode == ArrivalMode::kClosed ? 2.0 : 0.0;
    config.fault_model = &injector;
    const ExperimentResult r = mstk::Run(&device, &sched, requests, config);
    const FaultCounters& fc = r.metrics.fault();
    EXPECT_EQ(r.metrics.completed(), kRequests) << ArrivalModeName(mode);
    EXPECT_GT(fc.failed_requests, 0) << ArrivalModeName(mode);
    EXPECT_GT(fc.rebuild_ios, 0) << ArrivalModeName(mode);
    EXPECT_LE(r.metrics.queue_depth().max(), kWindow) << ArrivalModeName(mode);
  }
}

}  // namespace
}  // namespace mstk
