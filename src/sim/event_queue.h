// Time-ordered event queue for the discrete-event simulator.
//
// Events pop in (time, seq) order: equal timestamps fire in insertion order
// (stable), which keeps runs deterministic regardless of the internal
// layout. The structure is a bucketed calendar queue (Brown's design) with
// O(1) amortized push/pop under high fan-in. Buckets are intrusive chains
// threaded through pooled event nodes, so steady-state operation performs
// no allocation at all; the bucket count and width resize to track the live
// event population. tests/event_queue_property_test.cc drives it in
// lockstep with a binary-heap reference and requires identical pop order.
//
// Event callbacks are InlineFunction (src/sim/inline_function.h) stored in
// SlabPool nodes (src/sim/pool.h): scheduling an event costs a pooled slot
// and an inline move, never a malloc. Cancellation is O(1) with lazy
// removal; when dead entries outnumber live ones the calendar is rebuilt
// without them, so cancel-heavy workloads (timer re-arming) hold memory
// within a constant factor of the live event count.
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

  EventQueue();

  // Enqueues `cb` to fire at absolute time `at_ms`. Returns the event id,
  // usable with Cancel().
  int64_t Push(TimeMs at_ms, Callback cb);

  // Cancels a pending event. Returns false if the event already fired or was
  // already cancelled.
  bool Cancel(int64_t event_id);

  bool Empty() const { return live_ == 0; }
  int64_t size() const { return live_; }

  // Entries currently held, including lazily-cancelled ones. Bounded at
  // roughly 2x size() by pruning; exposed for tests.
  int64_t entries() const { return live_ + dead_; }

  // Time of the earliest live event. Requires !Empty().
  TimeMs PeekTime();

  struct Event {
    TimeMs time_ms = 0;
    int64_t id = -1;
    Callback callback;
  };

  // Removes and returns the earliest live event. Requires !Empty().
  Event Pop();

  // Hot-path form of Pop: advances *now_ms to the earliest live event's time
  // and invokes its callback in place (no move out of the pool), then
  // recycles the node. Requires !Empty().
  void FireNext(TimeMs* now_ms);

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    Callback cb;
    TimeMs time_ms = 0.0;
    uint64_t seq = 0;    // insertion order: tiebreak for equal times
    uint32_t gen = 0;    // bumped on fire/cancel; stale ids don't match
    uint32_t next = kNil;  // calendar bucket chain link
  };

  // Returns (a.time, a.seq) < (b.time, b.seq) — the pop order.
  static bool EarlierNode(const Node& a, const Node& b) {
    // Exact compare is intentional: (time, seq) must be a strict total
    // order so equal-time events fire in insertion order.
    // mstk-lint: allow(U2)
    if (a.time_ms != b.time_ms) {
      return a.time_ms < b.time_ms;
    }
    return a.seq < b.seq;
  }

  static int64_t EncodeId(uint32_t slot, uint32_t gen) {
    return static_cast<int64_t>((static_cast<uint64_t>(gen) << 32) | slot);
  }

  bool LiveId(int64_t event_id, uint32_t* slot_out) const;

  // Virtual bucket number of `t`: monotone in t, so the earliest live event
  // in the lowest non-empty virtual bucket is the global minimum.
  uint64_t VirtualBucket(TimeMs t) const {
    return static_cast<uint64_t>(t * inv_width_);
  }
  void CalendarInsert(uint32_t slot);
  // Locates the earliest live node; unlinks dead nodes encountered on the
  // way. Writes the owning bucket and the predecessor chain link (kNil for
  // bucket head). Requires live_ > 0.
  uint32_t CalendarFindMin(uint32_t* bucket_out, uint32_t* prev_out);
  void CalendarUnlink(uint32_t bucket, uint32_t prev, uint32_t slot);
  // Re-buckets every live node into `new_bucket_count` buckets with a width
  // fitted to the live population's time span; drops dead nodes.
  void CalendarResize(uint64_t new_bucket_count);
  void MaybeShrink();

  // Unlinks the earliest live event and returns its slot; the caller
  // releases the node.
  uint32_t ExtractMinSlot(TimeMs* time_out);

  SlabPool<Node> pool_;
  int64_t live_ = 0;
  int64_t dead_ = 0;  // cancelled but still linked entries
  uint64_t next_seq_ = 0;

  std::vector<uint32_t> buckets_;  // chain heads into pool_
  uint64_t bucket_count_ = 0;      // power of two
  uint64_t bucket_mask_ = 0;
  double width_ms_ = 1.0;
  double inv_width_ = 1.0;
  TimeMs min_time_floor_ = 0.0;  // no live event is earlier (last pop time)
  std::vector<uint32_t> scratch_slots_;  // resize workspace, capacity reused
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_EVENT_QUEUE_H_
