// Property tests for the EventQueue: the calendar queue must be
// observationally identical to a binary-heap reference under arbitrary
// push/fire churn — the same events fire in the same (time, seq) order, and
// the sizes agree. Every callback records its insertion index when it
// fires, so the check compares which event fired, not just when.
// Deterministic sweep output rests on this order.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

namespace mstk {
namespace {

// The reference: a binary heap over (time, insertion index).
class HeapQueue {
 public:
  int64_t Push(double time_ms) {
    heap_.emplace(time_ms, next_index_);
    return next_index_++;
  }
  int64_t size() const { return static_cast<int64_t>(heap_.size()); }
  double PeekTime() const { return heap_.top().first; }
  std::pair<double, int64_t> Pop() {
    const std::pair<double, int64_t> top = heap_.top();
    heap_.pop();
    return top;
  }

 private:
  using Entry = std::pair<double, int64_t>;  // (time, insertion index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  int64_t next_index_ = 0;
};

// Drives the calendar queue and the reference in lockstep. Every event runs
// OnFire() — which may push more events from inside FireNext — and only then
// records its own insertion index, read from its capture.
class Lockstep {
 public:
  Lockstep() = default;
  // Pending callbacks hold this object's address.
  Lockstep(const Lockstep&) = delete;
  Lockstep& operator=(const Lockstep&) = delete;

  void Push(TimeMs at_ms) {
    const int64_t index = heap_.Push(at_ms);
    Lockstep* self = this;
    cal_.Push(at_ms, [self, index] {
      self->OnFire();
      self->fired_.push_back(index);
    });
    ASSERT_EQ(cal_.size(), heap_.size());
  }

  // Fires the next event of the calendar and pops the reference: both must
  // agree on the time and on which event fired.
  void FireNext() {
    ASSERT_EQ(cal_.PeekTime(), heap_.PeekTime());
    const auto [time_ms, index] = heap_.Pop();
    const size_t fired_before = fired_.size();
    cal_.FireNext(&now_);
    ASSERT_EQ(now_, time_ms);
    ASSERT_EQ(fired_.size(), fired_before + 1);
    ASSERT_EQ(fired_.back(), index) << "at " << time_ms << " ms";
    ASSERT_EQ(cal_.size(), heap_.size());
  }

  void Drain() {
    while (!cal_.Empty()) {
      ASSERT_NO_FATAL_FAILURE(FireNext());
    }
    EXPECT_EQ(heap_.size(), 0);
  }

  bool Empty() const { return cal_.Empty(); }
  int64_t size() const { return cal_.size(); }
  TimeMs now() const { return now_; }
  const std::vector<int64_t>& fired() const { return fired_; }

 protected:
  virtual void OnFire() {}

 private:
  EventQueue cal_;
  HeapQueue heap_;
  TimeMs now_ = 0.0;
  std::vector<int64_t> fired_;
};

// One deterministic churn round. Times are drawn either from a wide real
// range or from a small discrete set, so that equal-time ties are common
// and the seq tiebreak is genuinely exercised.
void RunChurnEquivalence(uint64_t seed, int ops, bool coarse_times) {
  Lockstep queues;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fine(0.0, 1000.0);
  std::uniform_int_distribution<int> coarse(0, 31);
  std::uniform_int_distribution<int> action(0, 9);
  for (int i = 0; i < ops; ++i) {
    if (action(rng) < 6 || queues.Empty()) {
      // Fires advance the clock; pushes must not precede it.
      const double delay = coarse_times ? static_cast<double>(coarse(rng)) : fine(rng);
      ASSERT_NO_FATAL_FAILURE(queues.Push(queues.now() + delay)) << "at op " << i;
    } else {
      ASSERT_NO_FATAL_FAILURE(queues.FireNext()) << "at op " << i;
    }
  }
  ASSERT_NO_FATAL_FAILURE(queues.Drain());
}

TEST(EventQueueEquivalenceTest, RandomChurnFineTimes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/false);
  }
}

TEST(EventQueueEquivalenceTest, RandomChurnHeavyTies) {
  // Coarse integer times force many equal-time chains: firing order then
  // rests entirely on the seq tiebreak, which both queues must share.
  for (uint64_t seed = 100; seed <= 107; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/true);
  }
}

TEST(EventQueueEquivalenceTest, EqualTimeOrderIsInsertionOrderAfterResizes) {
  // Push enough coincident events to force several calendar resizes; FIFO
  // order among equal times must survive every re-thread.
  constexpr int kN = 5000;
  Lockstep queues;
  for (int i = 0; i < kN; ++i) {
    ASSERT_NO_FATAL_FAILURE(queues.Push(7.5));
  }
  ASSERT_NO_FATAL_FAILURE(queues.Drain());
  ASSERT_EQ(queues.fired().size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(queues.fired()[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueEquivalenceTest, InterleavedOpenLoopPatternMatches) {
  // The experiment-runner shape: a large preloaded arrival population with
  // short-lived completions scheduled after each fire. Exercises the
  // calendar resize path (grow during preload, shrink during drain) against
  // the heap.
  constexpr int kArrivals = 20000;
  Lockstep queues;
  double t = 0.0;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> gap(0.01, 0.12);
  for (int i = 0; i < kArrivals; ++i) {
    t += gap(rng);
    ASSERT_NO_FATAL_FAILURE(queues.Push(t));
  }
  int fired = 0;
  while (!queues.Empty()) {
    ASSERT_NO_FATAL_FAILURE(queues.FireNext()) << "at fire " << fired;
    // Every third fire models a dispatch: schedule a completion slightly
    // ahead, which lands near the calendar's current bucket cursor.
    if (++fired % 3 == 0) {
      ASSERT_NO_FATAL_FAILURE(queues.Push(queues.now() + 0.05));
    }
  }
}

// Each firing callback schedules 0-40 more events before it records itself.
// The population swings between kLow and kHigh: in the growing phase every
// callback schedules a uniform 0-40 children, so the calendar grows inside
// callbacks; in the draining phase only one callback in 50 does, so it
// shrinks after them. One delay in eight is zero, so children also tie with
// the event that schedules them.
class NestedPushes : public Lockstep {
 public:
  static constexpr int64_t kLow = 50;
  static constexpr int64_t kHigh = 20000;

  int swings = 0;
  bool spawning = true;

 protected:
  void OnFire() override {
    if (!spawning) return;
    if (growing_ ? size() >= kHigh : size() <= kLow) {
      growing_ = !growing_;
      ++swings;
    }
    const int children = growing_ || rng_() % 50 == 0 ? static_cast<int>(rng_() % 41) : 0;
    for (int i = 0; i < children; ++i) {
      const double delay = rng_() % 8 == 0 ? 0.0 : static_cast<double>(rng_() % 1024) * 0.25;
      Push(now() + delay);
    }
  }

 private:
  std::mt19937_64 rng_{7};
  bool growing_ = true;
};

TEST(EventQueueEquivalenceTest, CallbacksPushingDuringFireNextMatch) {
  NestedPushes queues;
  for (int i = 0; i < NestedPushes::kLow; ++i) {
    ASSERT_NO_FATAL_FAILURE(queues.Push(static_cast<double>(i)));
  }
  while (queues.swings < 6) {  // three full grow/drain cycles
    ASSERT_FALSE(queues.Empty());
    ASSERT_NO_FATAL_FAILURE(queues.FireNext()) << "after " << queues.fired().size() << " fires";
  }
  queues.spawning = false;
  ASSERT_NO_FATAL_FAILURE(queues.Drain());
  EXPECT_GT(queues.fired().size(), size_t{100000});
}

}  // namespace
}  // namespace mstk
