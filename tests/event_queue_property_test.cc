// Property tests for the EventQueue: the calendar queue must be
// observationally identical to a binary-heap reference under arbitrary
// push/cancel/pop churn — same pop order (time, seq tiebreak), same Cancel
// results, same sizes. Deterministic sweep output rests on this order.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

namespace mstk {
namespace {

// The reference: a binary heap over (time, insertion order) that skips
// cancelled ids lazily, with EventQueue's Push/Cancel/PeekTime/Pop contract.
class HeapQueue {
 public:
  int64_t Push(double time_ms) {
    heap_.emplace(time_ms, next_id_);
    live_.insert(next_id_);
    return next_id_++;
  }
  bool Cancel(int64_t id) { return live_.erase(id) > 0; }
  int64_t size() const { return static_cast<int64_t>(live_.size()); }
  double PeekTime() {
    while (live_.count(heap_.top().second) == 0) heap_.pop();
    return heap_.top().first;
  }
  double Pop() {
    const double time_ms = PeekTime();
    live_.erase(heap_.top().second);
    heap_.pop();
    return time_ms;
  }

 private:
  using Entry = std::pair<double, int64_t>;  // (time, insertion order)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_set<int64_t> live_;
  int64_t next_id_ = 0;
};

// One deterministic churn round driven into both queues in lockstep.
// Times are drawn from a small discrete set so equal-time ties are common
// and the seq tiebreak is genuinely exercised.
void RunChurnEquivalence(uint64_t seed, int ops, bool coarse_times) {
  EventQueue cal;
  HeapQueue heap;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fine(0.0, 1000.0);
  std::uniform_int_distribution<int> coarse(0, 31);
  std::uniform_int_distribution<int> action(0, 9);

  double floor_ms = 0.0;  // pops advance virtual time; pushes must not precede it
  std::vector<std::pair<int64_t, int64_t>> pending;  // (cal id, heap id)

  for (int i = 0; i < ops; ++i) {
    const int a = action(rng);
    if (a < 6 || cal.Empty()) {
      const double t =
          floor_ms + (coarse_times ? static_cast<double>(coarse(rng)) : fine(rng));
      const int64_t id_c = cal.Push(t, [] {});
      const int64_t id_h = heap.Push(t);
      pending.emplace_back(id_c, id_h);
    } else if (a < 8 && !pending.empty()) {
      std::uniform_int_distribution<size_t> pick(0, pending.size() - 1);
      const size_t k = pick(rng);
      const bool ok_c = cal.Cancel(pending[k].first);
      const bool ok_h = heap.Cancel(pending[k].second);
      ASSERT_EQ(ok_c, ok_h) << "Cancel diverged at op " << i;
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(k));
    } else {
      ASSERT_EQ(cal.PeekTime(), heap.PeekTime()) << "PeekTime diverged at op " << i;
      const EventQueue::Event ec = cal.Pop();
      ASSERT_EQ(ec.time_ms, heap.Pop()) << "pop time diverged at op " << i;
      floor_ms = ec.time_ms;
    }
    ASSERT_EQ(cal.size(), heap.size()) << "size diverged at op " << i;
  }

  // Drain: the full remaining pop sequences must match exactly.
  while (!cal.Empty()) {
    ASSERT_GT(heap.size(), 0);
    ASSERT_EQ(cal.PeekTime(), heap.PeekTime());
    ASSERT_EQ(cal.Pop().time_ms, heap.Pop());
  }
  EXPECT_EQ(heap.size(), 0);
}

TEST(EventQueueEquivalenceTest, RandomChurnFineTimes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/false);
  }
}

TEST(EventQueueEquivalenceTest, RandomChurnHeavyTies) {
  // Coarse integer times force many equal-time chains: pop order then rests
  // entirely on the seq tiebreak, which both queues must share.
  for (uint64_t seed = 100; seed <= 107; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/true);
  }
}

TEST(EventQueueEquivalenceTest, EqualTimeOrderIsInsertionOrderAfterResizes) {
  // Push enough coincident events to force several calendar resizes; FIFO
  // order among equal times must survive every re-thread.
  EventQueue cal;
  static int fired_count;
  static std::vector<int> fired_order;
  fired_count = 0;
  fired_order.clear();
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    cal.Push(7.5, [] { fired_order.push_back(fired_count++); });
  }
  while (!cal.Empty()) {
    cal.Pop().callback();
  }
  ASSERT_EQ(fired_order.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(fired_order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueEquivalenceTest, CancelChurnKeepsCalendarEntriesBounded) {
  // Timer re-arming: push a replacement and cancel the old event, thousands
  // of times. Lazily-cancelled nodes must be pruned, not accumulated one per
  // push, so entries stay within a constant factor of the live count.
  EventQueue q;
  int64_t pending = q.Push(1.0, [] {});
  for (int i = 0; i < 10000; ++i) {
    const int64_t next = q.Push(static_cast<double>(i + 2), [] {});
    EXPECT_TRUE(q.Cancel(pending));
    pending = next;
  }
  EXPECT_EQ(q.size(), 1);
  EXPECT_LE(q.entries(), 64 + 2);
  EXPECT_DOUBLE_EQ(q.Pop().time_ms, 10001.0);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueEquivalenceTest, InterleavedOpenLoopPatternMatches) {
  // The experiment-runner shape: a large preloaded arrival population with
  // short-lived completions scheduled from each pop. Exercises the calendar
  // resize path (grow during preload, shrink during drain) against the heap.
  EventQueue cal;
  HeapQueue heap;
  constexpr int kArrivals = 20000;
  double t = 0.0;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> gap(0.01, 0.12);
  for (int i = 0; i < kArrivals; ++i) {
    t += gap(rng);
    cal.Push(t, [] {});
    heap.Push(t);
  }
  int popped = 0;
  while (!cal.Empty()) {
    ASSERT_GT(heap.size(), 0);
    const EventQueue::Event ec = cal.Pop();
    ASSERT_EQ(ec.time_ms, heap.Pop()) << "diverged at pop " << popped;
    // Every third pop models a dispatch: schedule a completion slightly
    // ahead, which lands near the calendar's current bucket cursor.
    if (++popped % 3 == 0) {
      cal.Push(ec.time_ms + 0.05, [] {});
      heap.Push(ec.time_ms + 0.05);
    }
  }
  EXPECT_EQ(heap.size(), 0);
}

}  // namespace
}  // namespace mstk
