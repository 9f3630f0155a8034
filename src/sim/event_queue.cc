#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mstk {
namespace {

constexpr uint64_t kMinBuckets = 16;
// Hard cap on calendar size: 1<<22 heads = 16 MiB of uint32. Queues beyond
// ~8M live events degrade gracefully to a few nodes per bucket.
constexpr uint64_t kMaxBuckets = uint64_t{1} << 22;

// Lazy-removal bound: once entries are non-trivial and more than half dead,
// prune. The size floor keeps tiny queues from pruning constantly.
constexpr int64_t kCompactMinEntries = 64;

uint64_t NextPow2(uint64_t v) {
  uint64_t p = kMinBuckets;
  while (p < v && p < kMaxBuckets) {
    p <<= 1;
  }
  return p;
}

}  // namespace

EventQueue::EventQueue() {
  bucket_count_ = kMinBuckets;
  bucket_mask_ = bucket_count_ - 1;
  buckets_.assign(bucket_count_, kNil);
}

int64_t EventQueue::Push(TimeMs at_ms, Callback cb) {
  const uint32_t slot = pool_.Acquire();
  Node& node = pool_[slot];
  node.cb = std::move(cb);
  node.time_ms = at_ms;
  node.seq = next_seq_++;
  node.next = kNil;
  const int64_t id = EncodeId(slot, node.gen);
  ++live_;
  CalendarInsert(slot);
  if (static_cast<uint64_t>(live_) > bucket_count_ * 2 && bucket_count_ < kMaxBuckets) {
    // Over-allocate 8x: every resize re-threads the whole population, so
    // growing geometrically both bounds total re-thread work (~1.15 links
    // per event pushed vs ~2 with exact doubling) and keeps the largest
    // rebuild small enough to stay cache-resident. The walk cost of the
    // sparser ring is a few empty head slots per pop — a cache line or
    // two. The shrink threshold leaves a wide hysteresis band so a
    // grow/pop/push ripple never ping-pongs resizes.
    CalendarResize(NextPow2(static_cast<uint64_t>(live_) * 8));
  }
  return id;
}

bool EventQueue::LiveId(int64_t event_id, uint32_t* slot_out) const {
  if (event_id < 0) {
    return false;
  }
  const uint64_t raw = static_cast<uint64_t>(event_id);
  const uint32_t slot = static_cast<uint32_t>(raw & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(raw >> 32);
  if (slot >= pool_.Size()) {
    return false;
  }
  const Node& node = pool_[slot];
  if (node.gen != gen || !node.cb) {
    return false;
  }
  *slot_out = slot;
  return true;
}

bool EventQueue::Cancel(int64_t event_id) {
  uint32_t slot = 0;
  if (!LiveId(event_id, &slot)) {
    return false;
  }
  Node& node = pool_[slot];
  // The entry stays linked in its chain until pruned; bumping the
  // generation marks it dead for every later liveness check.
  node.cb.Reset();
  ++node.gen;
  --live_;
  ++dead_;
  if (live_ + dead_ >= kCompactMinEntries && live_ < dead_) {
    CalendarResize(bucket_count_);  // re-threads the live nodes, drops the dead
  }
  MaybeShrink();
  return true;
}

void EventQueue::CalendarInsert(uint32_t slot) {
  Node& node = pool_[slot];
  const uint64_t b = VirtualBucket(node.time_ms) & bucket_mask_;
  node.next = buckets_[b];
  buckets_[b] = static_cast<uint32_t>(slot);
}

uint32_t EventQueue::CalendarFindMin(uint32_t* bucket_out, uint32_t* prev_out) {
  assert(live_ > 0);
  // Walk virtual buckets starting at the floor (the last popped time — no
  // live event can be earlier). The first virtual bucket holding a live
  // event holds the global minimum: VirtualBucket() is monotone in time, so
  // any event in a later virtual bucket is strictly later than every event
  // in this one.
  uint64_t v = VirtualBucket(min_time_floor_);
  for (uint64_t step = 0; step < bucket_count_; ++step, ++v) {
    const uint32_t b = static_cast<uint32_t>(v & bucket_mask_);
    // Only this year's events count; later years share the bucket ring.
    // Every live event is >= the floor, so within this first ring walk a
    // chained node whose time precedes the bucket's end is certainly in
    // year v — one double compare settles the common case. The compare can
    // disagree with the placement arithmetic within 1 ulp of the boundary,
    // so on a miss fall back to the exact per-node virtual bucket.
    const TimeMs year_end_ms = static_cast<double>(v + 1) * width_ms_;
    uint32_t best = kNil;
    uint32_t best_prev = kNil;
    uint32_t prev = kNil;
    uint32_t cur = buckets_[b];
    while (cur != kNil) {
      Node& node = pool_[cur];
      if (!node.cb) {  // lazily-cancelled: unlink and recycle on the way
        const uint32_t next = node.next;
        CalendarUnlink(b, prev, cur);
        --dead_;
        pool_.Release(cur);
        cur = next;
        continue;
      }
      if ((node.time_ms < year_end_ms || VirtualBucket(node.time_ms) == v) &&
          (best == kNil || EarlierNode(node, pool_[best]))) {
        best = cur;
        best_prev = prev;
      }
      prev = cur;
      cur = node.next;
    }
    if (best != kNil) {
      min_time_floor_ = pool_[best].time_ms;
      *bucket_out = b;
      *prev_out = best_prev;
      return best;
    }
  }
  // A full ring without a hit: the population is sparse relative to the
  // bucket year. Fall back to a direct scan of every chain; the ring walk
  // visited every bucket, so no dead node is left to skip.
  uint32_t best = kNil;
  uint32_t best_prev = kNil;
  uint32_t best_bucket = 0;
  for (uint64_t b = 0; b < bucket_count_; ++b) {
    uint32_t prev = kNil;
    uint32_t cur = buckets_[b];
    while (cur != kNil) {
      const Node& node = pool_[cur];
      assert(node.cb);
      if (best == kNil || EarlierNode(node, pool_[best])) {
        best = cur;
        best_prev = prev;
        best_bucket = static_cast<uint32_t>(b);
      }
      prev = cur;
      cur = node.next;
    }
  }
  assert(best != kNil);
  min_time_floor_ = pool_[best].time_ms;
  *bucket_out = best_bucket;
  *prev_out = best_prev;
  return best;
}

void EventQueue::CalendarUnlink(uint32_t bucket, uint32_t prev, uint32_t slot) {
  if (prev == kNil) {
    buckets_[bucket] = pool_[slot].next;
  } else {
    pool_[prev].next = pool_[slot].next;
  }
}

void EventQueue::CalendarResize(uint64_t new_bucket_count) {
  scratch_slots_.clear();
  TimeMs t_min = 0;
  TimeMs t_max = 0;
  for (uint64_t b = 0; b < bucket_count_; ++b) {
    uint32_t cur = buckets_[b];
    while (cur != kNil) {
      Node& node = pool_[cur];
      const uint32_t next = node.next;
      if (!node.cb) {
        --dead_;
        pool_.Release(cur);
      } else {
        if (scratch_slots_.empty()) {
          t_min = node.time_ms;
          t_max = node.time_ms;
        } else {
          t_min = std::min(t_min, node.time_ms);
          t_max = std::max(t_max, node.time_ms);
        }
        scratch_slots_.push_back(cur);
      }
      cur = next;
    }
  }
  bucket_count_ = new_bucket_count;
  bucket_mask_ = bucket_count_ - 1;
  // Aim for ~one live event per bucket across the population's span; the
  // width floor guards against a degenerate span (all events coincident).
  const double span = t_max - t_min;
  const double per_event =
      span / static_cast<double>(std::max<int64_t>(live_, 1));
  width_ms_ = span > 0.0 ? std::max(per_event, 1e-9) : 1.0;
  inv_width_ = 1.0 / width_ms_;
  buckets_.assign(bucket_count_, kNil);
  for (const uint32_t slot : scratch_slots_) {
    CalendarInsert(slot);
  }
}

void EventQueue::MaybeShrink() {
  // Lazy: only rebuild once the ring is 32x oversized, and leave 8x slack
  // after the rebuild. Together with the 8x grow over-allocation this gives
  // a 4x-wide dead band on each side, so no push/pop ripple near a resize
  // point can ping-pong rebuilds. A drain from N live events re-threads
  // ~N/24 links total.
  if (bucket_count_ > kMinBuckets &&
      static_cast<uint64_t>(live_) * 32 < bucket_count_) {
    CalendarResize(NextPow2(static_cast<uint64_t>(live_) * 8));
  }
}

uint32_t EventQueue::ExtractMinSlot(TimeMs* time_out) {
  assert(live_ > 0 && "pop on empty EventQueue");
  uint32_t bucket = 0;
  uint32_t prev = kNil;
  const uint32_t slot = CalendarFindMin(&bucket, &prev);
  CalendarUnlink(bucket, prev, slot);
  --live_;
  *time_out = pool_[slot].time_ms;
  return slot;
}

TimeMs EventQueue::PeekTime() {
  assert(!Empty() && "PeekTime on empty queue");
  uint32_t bucket = 0;
  uint32_t prev = kNil;
  return pool_[CalendarFindMin(&bucket, &prev)].time_ms;
}

EventQueue::Event EventQueue::Pop() {
  Event event;
  const uint32_t slot = ExtractMinSlot(&event.time_ms);
  Node& node = pool_[slot];
  event.id = EncodeId(slot, node.gen);
  event.callback = std::move(node.cb);
  node.cb.Reset();
  ++node.gen;  // ids handed out for this incarnation are now stale
  pool_.Release(slot);
  MaybeShrink();
  return event;
}

void EventQueue::FireNext(TimeMs* now_ms) {
  const uint32_t slot = ExtractMinSlot(now_ms);
  Node& node = pool_[slot];
  // The id goes stale before the callback runs, so cancelling the firing
  // event from inside its own callback is a no-op (matching the old
  // erase-then-invoke order). The slot is not released until after the
  // call, so anything the callback pushes cannot reuse this node.
  ++node.gen;
  node.cb();  // in place — the callback is never moved or copied
  node.cb.Reset();
  pool_.Release(slot);
  MaybeShrink();
}

}  // namespace mstk
