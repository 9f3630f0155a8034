#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace mstk {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(3.0, [&] { fired.push_back(3); });
  q.Push(1.0, [&] { fired.push_back(1); });
  q.Push(2.0, [&] { fired.push_back(2); });
  TimeMs now = 0.0;
  std::vector<TimeMs> times;
  while (!q.Empty()) {
    q.FireNext(&now);
    times.push_back(now);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<TimeMs>{1.0, 2.0, 3.0}));
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&fired, i] { fired.push_back(i); });
  }
  TimeMs now = 0.0;
  while (!q.Empty()) {
    q.FireNext(&now);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, PeekTimeIsEarliestPending) {
  EventQueue q;
  q.Push(3.0, [] {});
  q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.PeekTime(), 1.0);
  EXPECT_EQ(q.size(), 3);  // peeking removes nothing
  TimeMs now = 0.0;
  q.FireNext(&now);
  EXPECT_DOUBLE_EQ(now, 1.0);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  q.Push(1.5, [] {});  // earlier than every pending event, not than the clock
  EXPECT_DOUBLE_EQ(q.PeekTime(), 1.5);
  EXPECT_EQ(q.size(), 3);
}

}  // namespace
}  // namespace mstk
