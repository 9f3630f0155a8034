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
  while (!q.Empty()) {
    q.Pop().callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) {
    q.Pop().callback();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const int64_t id = q.Push(1.0, [&] { ++fired; });
  q.Push(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel
  EXPECT_EQ(q.size(), 1);
  while (!q.Empty()) {
    q.Pop().callback();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelOnlyEventLeavesEmpty) {
  EventQueue q;
  const int64_t id = q.Push(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.size(), 0);
}

TEST(EventQueueTest, PeekSkipsCancelled) {
  EventQueue q;
  const int64_t early = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  q.Cancel(early);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  EXPECT_DOUBLE_EQ(q.Pop().time_ms, 2.0);
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const int64_t id = q.Push(1.0, [] {});
  q.Pop();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CompactionPreservesPopOrder) {
  EventQueue q;
  std::vector<int64_t> ids;
  // 256 live events at descending times plus heavy cancel churn in between.
  for (int i = 0; i < 256; ++i) {
    ids.push_back(q.Push(static_cast<double>(256 - i), [] {}));
    const int64_t dead = q.Push(1000.0, [] {});
    q.Cancel(dead);
  }
  // Cancel every other survivor to force more compactions.
  for (size_t i = 0; i < ids.size(); i += 2) {
    q.Cancel(ids[i]);
  }
  double last = 0.0;
  int64_t popped = 0;
  while (!q.Empty()) {
    const EventQueue::Event e = q.Pop();
    EXPECT_GT(e.time_ms, last);
    last = e.time_ms;
    ++popped;
  }
  EXPECT_EQ(popped, 128);
}

}  // namespace
}  // namespace mstk
