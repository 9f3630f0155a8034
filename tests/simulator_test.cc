#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace mstk {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.ScheduleAt(5.0, [&] { times.push_back(sim.NowMs()); });
  sim.ScheduleAt(1.0, [&] { times.push_back(sim.NowMs()); });
  EXPECT_EQ(sim.Run(), 2);
  EXPECT_EQ(times, (std::vector<double>{1.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.NowMs(), 5.0);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    ++chain;
    if (chain < 5) {
      sim.ScheduleAfter(1.0, [&step] { step(); });
    }
  };
  sim.ScheduleAfter(1.0, [&step] { step(); });
  sim.Run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(sim.NowMs(), 5.0);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(10.0, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(5.0), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.NowMs(), 5.0);
  EXPECT_EQ(sim.Run(), 1);  // the event past the horizon stayed queued
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ZeroDelaySameTimeOrdering) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] {
    order.push_back(1);
    sim.ScheduleAfter(0.0, [&] { order.push_back(2); });
  });
  sim.ScheduleAt(1.0, [&] { order.push_back(3); });
  sim.Run();
  // The same-time event scheduled earlier (3) fires before the zero-delay
  // event created during execution (2): FIFO within a timestamp.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

}  // namespace
}  // namespace mstk
