#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mstk {

void EventQueue::Push(TimeMs at_ms, Callback cb) {
  const uint32_t slot = pool_.Acquire();
  Node& node = pool_[slot];
  node.cb = std::move(cb);
  node.time_ms = at_ms;
  node.seq = next_seq_++;
  node.next = kNil;
  ++size_;
  if (lane_head_ == kNil) {
    lane_head_ = slot;
    lane_tail_ = slot;
  } else if (at_ms >= pool_[lane_tail_].time_ms) {
    pool_[lane_tail_].next = slot;
    lane_tail_ = slot;
  } else {
    heap_.push_back({at_ms, node.seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
}

TimeMs EventQueue::PeekTime() const {
  assert(!Empty() && "PeekTime on empty queue");
  if (heap_.empty()) {
    return pool_[lane_head_].time_ms;
  }
  if (lane_head_ == kNil) {
    return heap_.front().time_ms;
  }
  return std::min(pool_[lane_head_].time_ms, heap_.front().time_ms);
}

void EventQueue::FireNext(TimeMs* now_ms) {
  assert(size_ > 0 && "FireNext on empty EventQueue");
  uint32_t slot = lane_head_;
  if (!heap_.empty() && (slot == kNil || Earlier(heap_.front(), pool_[slot]))) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    slot = heap_.back().slot;
    heap_.pop_back();
  } else {
    lane_head_ = pool_[slot].next;
  }
  --size_;
  Node& node = pool_[slot];
  *now_ms = node.time_ms;
  // The slot is released only after the call, so nothing the callback
  // pushes can reuse this node while it runs.
  node.cb();  // in place — the callback is never moved or copied
  pool_.Release(slot);
}

}  // namespace mstk
