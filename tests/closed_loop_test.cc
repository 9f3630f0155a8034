// Closed-mode Run: a fixed window of outstanding requests, each completion
// reopening its slot after the think time.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

std::vector<Request> RandomReads(const MemsDevice& device, uint64_t seed, int64_t count) {
  Rng rng(seed);
  std::vector<Request> requests(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Request& req = requests[static_cast<size_t>(i)];
    req.id = i;
    req.block_count = 8;
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
  }
  return requests;
}

RunConfig Closed(int window, TimeMs think_ms = 0.0) {
  RunConfig config;
  config.mode = ArrivalMode::kClosed;
  config.window = window;
  config.think_ms = think_ms;
  return config;
}

TEST(ClosedLoopTest, CompletesExactlyRequestCount) {
  MemsDevice device;
  FcfsScheduler sched;
  const ExperimentResult r = mstk::Run(&device, &sched, RandomReads(device, 1, 1000), Closed(4));
  EXPECT_EQ(r.metrics.completed(), 1000);
  EXPECT_GT(r.ThroughputPerSecond(), 0.0);
}

TEST(ClosedLoopTest, MplOneIsSequential) {
  MemsDevice device;
  FcfsScheduler sched;
  const ExperimentResult r = mstk::Run(&device, &sched, RandomReads(device, 2, 500), Closed(1));
  // One-at-a-time: response == service, device 100% busy.
  EXPECT_NEAR(r.metrics.response_time().mean(), r.metrics.service_time().mean(), 1e-9);
  EXPECT_NEAR(r.activity.busy_ms, r.makespan_ms, 1e-6);
}

TEST(ClosedLoopTest, ThroughputSaturatesWithMpl) {
  MemsDevice device;
  FcfsScheduler sched;
  const std::vector<Request> requests = RandomReads(device, 3, 2000);
  double prev = 0.0;
  for (const int mpl : {1, 4, 16}) {
    const ExperimentResult r = mstk::Run(&device, &sched, requests, Closed(mpl));
    // FCFS gains nothing from a deeper queue (no reordering): throughput is
    // flat within noise.
    if (prev > 0.0) {
      EXPECT_NEAR(r.ThroughputPerSecond(), prev, prev * 0.1);
    }
    prev = r.ThroughputPerSecond();
  }
}

TEST(ClosedLoopTest, SptfThroughputGrowsWithQueueDepth) {
  MemsDevice device;
  SptfScheduler sptf(&device);
  const std::vector<Request> requests = RandomReads(device, 4, 3000);
  const double t1 = mstk::Run(&device, &sptf, requests, Closed(1)).ThroughputPerSecond();
  const double t32 = mstk::Run(&device, &sptf, requests, Closed(32)).ThroughputPerSecond();
  // With 32 candidates to choose from, SPTF cuts positioning dramatically.
  EXPECT_GT(t32, t1 * 1.4);
}

TEST(ClosedLoopTest, ThinkTimeReducesUtilization) {
  MemsDevice device;
  FcfsScheduler sched;
  const ExperimentResult r =
      mstk::Run(&device, &sched, RandomReads(device, 5, 500), Closed(1, /*think_ms=*/5.0));
  const double utilization = r.activity.busy_ms / r.makespan_ms;
  EXPECT_LT(utilization, 0.5);
}

}  // namespace
}  // namespace mstk
