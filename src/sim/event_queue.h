// Time-ordered event queue for the discrete-event simulator.
//
// Events fire in (time, seq) order: equal timestamps fire in insertion order
// (stable), which keeps runs deterministic regardless of the internal
// layout. The structure is a bucketed calendar queue (Brown's design) with
// O(1) amortized push/fire under high fan-in. Buckets are intrusive chains
// threaded through pooled event nodes, so steady-state operation performs
// no allocation at all; the bucket count and width resize to track the
// event population. tests/event_queue_property_test.cc drives it in
// lockstep with a binary-heap reference and requires the identical firing
// sequence.
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
  static constexpr uint64_t kMinBuckets = 16;

  struct Node {
    Callback cb;
    TimeMs time_ms = 0.0;
    uint64_t seq = 0;      // insertion order: tiebreak for equal times
    uint32_t next = kNil;  // calendar bucket chain link
  };

  // Returns (a.time, a.seq) < (b.time, b.seq) — the firing order.
  static bool EarlierNode(const Node& a, const Node& b) {
    // Exact compare is intentional: (time, seq) must be a strict total
    // order so equal-time events fire in insertion order.
    // mstk-lint: allow(U2)
    if (a.time_ms != b.time_ms) {
      return a.time_ms < b.time_ms;
    }
    return a.seq < b.seq;
  }

  // Virtual bucket number of `t`: monotone in t, so the earliest event in
  // the lowest non-empty virtual bucket is the global minimum.
  uint64_t VirtualBucket(TimeMs t) const {
    return static_cast<uint64_t>(t * inv_width_);
  }
  void CalendarInsert(uint32_t slot);
  // Locates the earliest node. Writes the owning bucket and the predecessor
  // chain link (kNil for bucket head). Requires size_ > 0.
  uint32_t CalendarFindMin(uint32_t* bucket_out, uint32_t* prev_out) const;
  void CalendarUnlink(uint32_t bucket, uint32_t prev, uint32_t slot);
  // Re-buckets every node into `new_bucket_count` buckets with a width
  // fitted to the population's time span.
  void CalendarResize(uint64_t new_bucket_count);
  void MaybeShrink();
  // Bucket count for `v`: the next power of two, clamped to
  // [kMinBuckets, the hard cap].
  static uint64_t NextPow2(uint64_t v);

  SlabPool<Node> pool_;
  int64_t size_ = 0;
  uint64_t next_seq_ = 0;

  // Chain heads into pool_, one per bucket; the count is a power of two.
  std::vector<uint32_t> buckets_ = std::vector<uint32_t>(kMinBuckets, kNil);
  uint64_t bucket_count_ = kMinBuckets;
  uint64_t bucket_mask_ = kMinBuckets - 1;
  double width_ms_ = 1.0;
  double inv_width_ = 1.0;
  TimeMs min_time_floor_ = 0.0;  // no pending event is earlier (last fire time)
  std::vector<uint32_t> scratch_slots_;  // resize workspace, capacity reused
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_EVENT_QUEUE_H_
