#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mstk {
namespace {

// Hard cap on calendar size: 1<<22 heads = 16 MiB of uint32. Queues beyond
// ~8M events degrade gracefully to a few nodes per bucket.
constexpr uint64_t kMaxBuckets = uint64_t{1} << 22;

}  // namespace

uint64_t EventQueue::NextPow2(uint64_t v) {
  uint64_t p = kMinBuckets;
  while (p < v && p < kMaxBuckets) {
    p <<= 1;
  }
  return p;
}

void EventQueue::Push(TimeMs at_ms, Callback cb) {
  const uint32_t slot = pool_.Acquire();
  Node& node = pool_[slot];
  node.cb = std::move(cb);
  node.time_ms = at_ms;
  node.seq = next_seq_++;
  node.next = kNil;
  ++size_;
  CalendarInsert(slot);
  if (static_cast<uint64_t>(size_) > bucket_count_ * 2 && bucket_count_ < kMaxBuckets) {
    // Over-allocate 8x: every resize re-threads the whole population, so
    // growing geometrically both bounds total re-thread work (~1.15 links
    // per event pushed vs ~2 with exact doubling) and keeps the largest
    // rebuild small enough to stay cache-resident. The walk cost of the
    // sparser ring is a few empty head slots per pop — a cache line or
    // two. The shrink threshold leaves a wide hysteresis band so a
    // grow/pop/push ripple never ping-pongs resizes.
    CalendarResize(NextPow2(static_cast<uint64_t>(size_) * 8));
  }
}

void EventQueue::CalendarInsert(uint32_t slot) {
  Node& node = pool_[slot];
  const uint64_t b = VirtualBucket(node.time_ms) & bucket_mask_;
  node.next = buckets_[b];
  buckets_[b] = static_cast<uint32_t>(slot);
}

uint32_t EventQueue::CalendarFindMin(uint32_t* bucket_out, uint32_t* prev_out) const {
  assert(size_ > 0);
  // Walk virtual buckets starting at the floor (the last fired time — no
  // pending event can be earlier). The first virtual bucket holding an
  // event of its year holds the global minimum: VirtualBucket() is monotone
  // in time, so any event in a later virtual bucket is strictly later than
  // every event in this one.
  uint64_t v = VirtualBucket(min_time_floor_);
  for (uint64_t step = 0; step < bucket_count_; ++step, ++v) {
    const uint32_t b = static_cast<uint32_t>(v & bucket_mask_);
    // Only this year's events count; later years share the bucket ring.
    // Every pending event is >= the floor, so within this first ring walk a
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
      const Node& node = pool_[cur];
      if ((node.time_ms < year_end_ms || VirtualBucket(node.time_ms) == v) &&
          (best == kNil || EarlierNode(node, pool_[best]))) {
        best = cur;
        best_prev = prev;
      }
      prev = cur;
      cur = node.next;
    }
    if (best != kNil) {
      *bucket_out = b;
      *prev_out = best_prev;
      return best;
    }
  }
  // A full ring without a hit: the population is sparse relative to the
  // bucket year. Fall back to a direct scan of every chain.
  uint32_t best = kNil;
  uint32_t best_prev = kNil;
  uint32_t best_bucket = 0;
  for (uint64_t b = 0; b < bucket_count_; ++b) {
    uint32_t prev = kNil;
    uint32_t cur = buckets_[b];
    while (cur != kNil) {
      const Node& node = pool_[cur];
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
      const Node& node = pool_[cur];
      if (scratch_slots_.empty()) {
        t_min = node.time_ms;
        t_max = node.time_ms;
      } else {
        t_min = std::min(t_min, node.time_ms);
        t_max = std::max(t_max, node.time_ms);
      }
      scratch_slots_.push_back(cur);
      cur = node.next;
    }
  }
  bucket_count_ = new_bucket_count;
  bucket_mask_ = bucket_count_ - 1;
  // Aim for ~one event per bucket across the population's span; the width
  // floor guards against a degenerate span (all events coincident).
  const double span = t_max - t_min;
  const double per_event =
      span / static_cast<double>(std::max<int64_t>(size_, 1));
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
  // a 4x-wide dead band on each side, so no push/fire ripple near a resize
  // point can ping-pong rebuilds. A drain from N events re-threads ~N/24
  // links total.
  if (bucket_count_ > kMinBuckets &&
      static_cast<uint64_t>(size_) * 32 < bucket_count_) {
    CalendarResize(NextPow2(static_cast<uint64_t>(size_) * 8));
  }
}

TimeMs EventQueue::PeekTime() const {
  assert(!Empty() && "PeekTime on empty queue");
  uint32_t bucket = 0;
  uint32_t prev = kNil;
  return pool_[CalendarFindMin(&bucket, &prev)].time_ms;
}

void EventQueue::FireNext(TimeMs* now_ms) {
  assert(size_ > 0 && "FireNext on empty EventQueue");
  uint32_t bucket = 0;
  uint32_t prev = kNil;
  const uint32_t slot = CalendarFindMin(&bucket, &prev);
  CalendarUnlink(bucket, prev, slot);
  --size_;
  Node& node = pool_[slot];
  // Only a fire moves the floor: a peek must not, because the caller may
  // still push events between the clock and the peeked time.
  min_time_floor_ = node.time_ms;
  *now_ms = node.time_ms;
  // The slot is released only after the call, so nothing the callback
  // pushes can reuse this node while it runs.
  node.cb();  // in place — the callback is never moved or copied
  pool_.Release(slot);
  MaybeShrink();
}

}  // namespace mstk
