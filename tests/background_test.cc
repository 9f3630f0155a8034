#include "src/core/background.h"

#include <gtest/gtest.h>

#include "src/core/metrics.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

std::vector<Request> MakeTasks(int n) {
  std::vector<Request> tasks;
  for (int i = 0; i < n; ++i) {
    Request req;
    req.lbn = 100000 + i * 64;
    req.block_count = 64;
    tasks.push_back(req);
  }
  return tasks;
}

TEST(BackgroundTest, DrainsOnIdleDevice) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  BackgroundRunner bg(&sim, &driver, MakeTasks(20), /*idle_delay_ms=*/1.0);
  sim.Run();
  EXPECT_TRUE(bg.Done());
  EXPECT_EQ(bg.completed(), 20);
  EXPECT_EQ(metrics.completed(), 20);
}

TEST(BackgroundTest, ForegroundGetsPriority) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  BackgroundRunner bg(&sim, &driver, MakeTasks(1000), /*idle_delay_ms=*/2.0);

  // A dense foreground burst from t=0 to ~t=100: background must stay out.
  Rng rng(3);
  int64_t fg_done_by_100 = 0;
  double makespan_fg = 0.0;
  driver.AddCompletionListener([&](const Request& req, TimeMs now) {
    if (!bg.IsBackgroundId(req.id)) {
      makespan_fg = now;
      if (now <= 100.0) {
        ++fg_done_by_100;
      }
    }
  });
  std::vector<Request> workload(100);
  for (int i = 0; i < 100; ++i) {
    Request& req = workload[static_cast<size_t>(i)];
    req.id = i;
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    req.block_count = 8;
    req.arrival_ms = i * 0.5;  // arrivals every 0.5 ms: rarely a 2 ms gap
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
  }
  sim.Run();
  EXPECT_EQ(fg_done_by_100, 100);  // foreground finished promptly
  EXPECT_TRUE(bg.Done());          // background finished afterwards
  EXPECT_GT(bg.last_completion_ms(), makespan_fg);
}

TEST(BackgroundTest, HysteresisSuppressesInjectionInShortGaps) {
  MemsDevice device_eager;
  MemsDevice device_patient;
  auto run = [](MemsDevice& device, double delay) {
    FcfsScheduler sched;
    MetricsCollector metrics;
    Simulator sim;
    Driver driver(&sim, &device, &sched, &metrics);
    BackgroundRunner bg(&sim, &driver, MakeTasks(500), delay);
    Rng rng(5);
    double fg_total = 0.0;
    int64_t fg_count = 0;
    driver.AddCompletionListener([&](const Request& req, TimeMs now) {
      if (!bg.IsBackgroundId(req.id)) {
        fg_total += now - req.arrival_ms;
        ++fg_count;
      }
    });
    std::vector<Request> workload(200);
    for (int i = 0; i < 200; ++i) {
      Request& req = workload[static_cast<size_t>(i)];
      req.id = i;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
      req.block_count = 8;
      req.arrival_ms = i * 3.0;  // ~2 ms idle gaps between requests
      const Request* arrival = &req;
      sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
    }
    sim.RunUntil(200 * 3.0 + 50.0);
    return fg_total / static_cast<double>(fg_count);
  };
  // Eager injection (no hysteresis) squeezes background work into every
  // gap and delays more foreground arrivals than patient injection.
  const double eager_fg = run(device_eager, 0.0);
  const double patient_fg = run(device_patient, 5.0);
  EXPECT_LT(patient_fg, eager_fg);
}

TEST(BackgroundTest, NoTasksIsInert) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  BackgroundRunner bg(&sim, &driver, {}, 1.0);
  Request req;
  req.lbn = 0;
  req.block_count = 8;
  const Request* arrival = &req;
  sim.ScheduleAt(0.0, [&driver, arrival] { driver.Submit(*arrival); });
  sim.Run();
  EXPECT_TRUE(bg.Done());
  EXPECT_EQ(bg.completed(), 0);
  EXPECT_EQ(metrics.completed(), 1);
}

// Background requests that another party submits to the same driver (an
// ArrayManager's greedy rebuild, ids from 2^50) complete through the
// runner's completion listener too. The runner counts only ids it issued.
TEST(BackgroundTest, ForeignBackgroundCompletionsAreNotCounted) {
  MemsDevice device;
  FcfsScheduler sched;
  MetricsCollector metrics;
  Simulator sim;
  Driver driver(&sim, &device, &sched, &metrics);
  BackgroundRunner bg(&sim, &driver, MakeTasks(1), /*idle_delay_ms=*/1.0);
  for (const int64_t id : {int64_t{1} << 50, (int64_t{1} << 40) + 1}) {
    Request foreign;
    foreign.id = id;
    foreign.lbn = 0;
    foreign.block_count = 8;
    foreign.background = true;
    driver.Submit(foreign);
  }
  sim.Run();
  EXPECT_EQ(metrics.fault().rebuild_ios, 3);
  EXPECT_EQ(bg.completed(), 1);
  EXPECT_TRUE(bg.Done());
  EXPECT_TRUE(bg.IsBackgroundId(int64_t{1} << 40));
  EXPECT_FALSE(bg.IsBackgroundId((int64_t{1} << 40) + 1));
}

}  // namespace
}  // namespace mstk
