// Time-ordered event queue for the discrete-event simulator.
//
// Events fire in (time, seq) order: equal timestamps fire in insertion order
// (stable), which keeps runs deterministic. The queue has two lanes:
//
// - The sorted lane is a FIFO chained through the pooled event nodes. A push
//   joins it when the lane is empty or when its time is no earlier than the
//   lane's tail, so the lane stays sorted at O(1) per event. Every harness
//   pushes its arrival stream in time order before it runs, so arrivals, the
//   window kick-off and the first event of an empty queue land here.
// - Every other push goes to a binary min-heap of (time, seq, slot) keys.
//   These are the completions, retries and timers scheduled between
//   arrivals.
//
// FireNext takes the earlier of the two heads on (time, seq), so the firing
// order never depends on which lane an event joined. What keeps the heap
// small: a heap push happens only while the lane is non-empty, and only
// before the lane's tail; the tail only moves later until the lane drains,
// and the lane drains only after every earlier event has fired. So the heap
// holds only events in flight and is empty whenever the lane is. Nothing
// needs resizing: the lane is a chain through nodes that already exist, and
// the heap's vector grows to the peak number of events in flight.
// tests/event_queue_property_test.cc drives the queue in lockstep with a
// binary-heap reference and requires the identical firing sequence.
//
// Event callbacks are InlineFunction (src/sim/inline_function.h) stored in
// SlabPool nodes (src/sim/pool.h): scheduling an event costs a pooled slot
// and an inline move, never a malloc. Scheduling is fire-and-forget: an
// event cannot be cancelled and has no id. Model code that must ignore a
// stale event checks an epoch it captured when scheduling.
#ifndef MSTK_SRC_SIM_EVENT_QUEUE_H_
#define MSTK_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/pool.h"
#include "src/sim/units.h"

namespace mstk {

// Inline capture budget for event callbacks: two pointers. Deliberately
// tight — it caps the pooled event node at 48 bytes, and open-loop
// throughput is bounded by node memory traffic when hundreds of thousands
// of events are pending. Oversized captures fail at compile time; capture
// pointers or hoist state into members instead of raising this.
inline constexpr size_t kEventCallbackBytes = 16;

class EventQueue {
 public:
  using Callback = InlineFunction<kEventCallbackBytes>;

  // Enqueues `cb` to fire at absolute time `at_ms`.
  void Push(TimeMs at_ms, Callback cb);

  bool Empty() const { return size_ == 0; }
  int64_t size() const { return size_; }

  // Time of the earliest event. Requires !Empty().
  TimeMs PeekTime() const;

  // The only way an event leaves the queue: unlinks the earliest event,
  // advances *now_ms to its time and invokes its callback in place (no move
  // out of the pool), then recycles the node. Requires !Empty().
  void FireNext(TimeMs* now_ms);

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    Callback cb;
    TimeMs time_ms = 0.0;
    uint64_t seq = 0;      // insertion order: tiebreak for equal times
    uint32_t next = kNil;  // sorted-lane link
  };

  // A heap entry: the node's firing order plus its slot.
  struct Key {
    TimeMs time_ms;
    uint64_t seq;
    uint32_t slot;
  };

  // Returns (a.time_ms, a.seq) < (b.time_ms, b.seq) — the firing order —
  // for any mix of heap keys and nodes.
  template <typename A, typename B>
  static bool Earlier(const A& a, const B& b) {
    // Exact compare is intentional: (time, seq) must be a strict total
    // order so equal-time events fire in insertion order.
    // mstk-lint: allow(U2)
    if (a.time_ms != b.time_ms) {
      return a.time_ms < b.time_ms;
    }
    return a.seq < b.seq;
  }
  // The heap comparator: std::push_heap keeps the greatest key on top, so
  // ordering by "fires later" makes it a min-heap.
  static bool Later(const Key& a, const Key& b) { return Earlier(b, a); }

  SlabPool<Node> pool_;
  int64_t size_ = 0;
  uint64_t next_seq_ = 0;

  uint32_t lane_head_ = kNil;  // earliest lane node; kNil when the lane is empty
  uint32_t lane_tail_ = kNil;  // latest lane node; stale while the lane is empty
  std::vector<Key> heap_;
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_EVENT_QUEUE_H_
