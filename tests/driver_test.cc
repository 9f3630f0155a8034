#include "src/core/driver.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

std::vector<Request> SmallWorkload(MemsDevice& device, double rate, int64_t n,
                                   uint64_t seed = 1) {
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate;
  config.request_count = n;
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(seed);
  return GenerateRandomWorkload(config, rng);
}

TEST(DriverTest, CompletesAllRequests) {
  MemsDevice device;
  FcfsScheduler sched;
  const auto requests = SmallWorkload(device, 200.0, 500);
  const ExperimentResult result = mstk::Run(&device, &sched, requests);
  EXPECT_EQ(result.metrics.completed(), 500);
  EXPECT_EQ(result.activity.requests, 500);
}

TEST(DriverTest, ResponseAtLeastService) {
  MemsDevice device;
  FcfsScheduler sched;
  const auto requests = SmallWorkload(device, 800.0, 1000);
  const ExperimentResult result = mstk::Run(&device, &sched, requests);
  EXPECT_GE(result.metrics.response_time().mean(),
            result.metrics.service_time().mean());
  EXPECT_GE(result.metrics.response_time().min(), 0.0);
}

TEST(DriverTest, LowLoadResponseEqualsService) {
  MemsDevice device;
  FcfsScheduler sched;
  // 5/s against a ~1 ms service time: queueing is negligible.
  const auto requests = SmallWorkload(device, 5.0, 300);
  const ExperimentResult result = mstk::Run(&device, &sched, requests);
  EXPECT_NEAR(result.metrics.response_time().mean(),
              result.metrics.service_time().mean(), 0.02);
}

TEST(DriverTest, UtilizationMatchesLittlesLaw) {
  MemsDevice device;
  FcfsScheduler sched;
  const auto requests = SmallWorkload(device, 600.0, 4000);
  const ExperimentResult result = mstk::Run(&device, &sched, requests);
  // Busy fraction ~= arrival rate * mean service time.
  const double util = result.activity.busy_ms / result.makespan_ms;
  const double expect = 600.0 * result.metrics.service_time().mean() / 1000.0;
  EXPECT_NEAR(util, expect, 0.05);
}

TEST(DriverTest, HigherLoadRaisesResponseNotService) {
  MemsDevice device;
  FcfsScheduler sched;
  const auto low = mstk::Run(&device, &sched, SmallWorkload(device, 100.0, 2000));
  const auto high = mstk::Run(&device, &sched, SmallWorkload(device, 1000.0, 2000));
  EXPECT_GT(high.metrics.response_time().mean(), low.metrics.response_time().mean() * 1.5);
  EXPECT_NEAR(high.metrics.service_time().mean(), low.metrics.service_time().mean(), 0.2);
}

TEST(DriverTest, OnCompleteAndIdleCallbacksFire) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  int completions = 0;
  int idles = 0;
  int actives = 0;
  driver.AddCompletionListener([&](const Request&, TimeMs) { ++completions; });
  driver.AddIdleListener([&](TimeMs) { ++idles; });
  driver.AddActiveListener([&](TimeMs) { ++actives; });

  Request req;
  req.lbn = 1000;
  req.block_count = 8;
  // Two well-separated requests: two busy periods.
  sim.ScheduleAt(0.0, [&] { driver.Submit(req); });
  sim.ScheduleAt(100.0, [&] { driver.Submit(req); });
  sim.Run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(idles, 2);
  EXPECT_EQ(actives, 2);
}

TEST(DriverTest, DispatchPenaltyDelaysService) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  Request req;
  req.lbn = 0;
  req.block_count = 8;
  req.arrival_ms = 0.0;
  driver.AddDispatchPenalty(7.0);
  sim.ScheduleAt(0.0, [&] { driver.Submit(req); });
  sim.Run();
  EXPECT_GE(metrics.response_time().mean(), 7.0);
}

TEST(DriverTest, QueuePhaseMatchesQueueTimeAndPhasesTileService) {
  MemsDevice device;
  FcfsScheduler sched;
  // Enough load that real queueing happens.
  const auto requests = SmallWorkload(device, 900.0, 2000, 3);
  const ExperimentResult result = mstk::Run(&device, &sched, requests);
  const MetricsCollector& m = result.metrics;
  ASSERT_EQ(m.phase(Phase::kQueue).count(), m.completed());
  // The driver stamps time-in-queue into the kQueue phase.
  EXPECT_NEAR(m.phase(Phase::kQueue).mean(), m.queue_time().mean(), 1e-9);
  EXPECT_GT(m.phase(Phase::kQueue).mean(), 0.0);
  // Mechanical phases tile the service time on average.
  double phase_mean_sum = 0.0;
  for (int p = static_cast<int>(Phase::kSeekX); p < kPhaseCount; ++p) {
    phase_mean_sum += m.phase(static_cast<Phase>(p)).mean();
  }
  EXPECT_NEAR(phase_mean_sum, m.service_time().mean(), 1e-9);
}

TEST(DriverTest, DispatchPenaltyLandsInOverheadPhase) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  Request req;
  req.lbn = 0;
  req.block_count = 8;
  req.arrival_ms = 0.0;
  driver.AddDispatchPenalty(7.0);
  sim.ScheduleAt(0.0, [&] { driver.Submit(req); });
  sim.Run();
  EXPECT_GE(metrics.phase(Phase::kOverhead).mean(), 7.0);
  EXPECT_NEAR(metrics.phase(Phase::kOverhead).mean() +
                  metrics.phase(Phase::kSeekX).mean() +
                  metrics.phase(Phase::kSeekY).mean() +
                  metrics.phase(Phase::kSettle).mean() +
                  metrics.phase(Phase::kTurnaround).mean() +
                  metrics.phase(Phase::kTransfer).mean(),
              metrics.service_time().mean(), 1e-9);
}

TEST(DriverTest, SptfIntegrationReordersQueue) {
  MemsDevice device;
  SptfScheduler sptf(&device);
  FcfsScheduler fcfs;
  // Saturating load so the queue is deep enough for reordering to matter.
  const auto requests = SmallWorkload(device, 2000.0, 3000, 7);
  const auto r_fcfs = mstk::Run(&device, &fcfs, requests);
  const auto r_sptf = mstk::Run(&device, &sptf, requests);
  EXPECT_LT(r_sptf.metrics.response_time().mean(),
            r_fcfs.metrics.response_time().mean());
  // SPTF lowers mean service time (less positioning).
  EXPECT_LT(r_sptf.metrics.service_time().mean(),
            r_fcfs.metrics.service_time().mean());
}

}  // namespace
}  // namespace mstk
