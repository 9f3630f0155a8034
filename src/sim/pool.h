// Slab pool with free-list reuse for the event queue's nodes.
//
// The discrete-event kernel allocates one node per scheduled event; at 10M+
// events/sec a general malloc/free per event dominates the profile. The
// event queue (src/sim/event_queue.h) is the pool's only user. SlabPool
// hands out slots from fixed-size slabs and recycles freed slots LIFO (hot
// slots stay in cache). Slabs are never moved or freed until the pool is
// destroyed, so raw pointers into the pool stay valid across growth — the
// event queue relies on this to run callbacks in place.
#ifndef MSTK_SRC_SIM_POOL_H_
#define MSTK_SRC_SIM_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace mstk {

// Object pool of default-constructed `T` slots addressed by dense uint32
// indices. Acquire() returns a slot index (reusing the most recently
// released slot first); Release() returns it to the free list. `T` is
// constructed once per slot and reused in place — callers reset whatever
// state they need between uses.
template <typename T>
class SlabPool {
 public:
  using Slot = uint32_t;
  static constexpr Slot kInvalidSlot = UINT32_MAX;
  static constexpr uint32_t kSlabSize = 256;  // objects per slab

  // Takes a slot from the free list, growing by one slab when empty.
  Slot Acquire() {
    if (free_head_ == kInvalidSlot) {
      Grow();
    }
    const Slot slot = free_head_;
    free_head_ = next_free_[slot];
    ++live_;
    return slot;
  }

  // Returns `slot` to the free list (LIFO: it is the next one handed out).
  void Release(Slot slot) {
    assert(slot < Size() && "Release of out-of-range slot");
    next_free_[slot] = free_head_;
    free_head_ = slot;
    assert(live_ > 0);
    --live_;
  }

  T& operator[](Slot slot) { return slabs_[slot / kSlabSize][slot % kSlabSize]; }
  const T& operator[](Slot slot) const {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }

  // Slots currently handed out.
  uint64_t live() const { return live_; }
  // Total slots ever created (live + free). Never shrinks.
  uint64_t Size() const { return static_cast<uint64_t>(slabs_.size()) * kSlabSize; }

 private:
  void Grow() {
    const uint64_t base = Size();
    slabs_.push_back(std::make_unique<T[]>(kSlabSize));
    next_free_.resize(base + kSlabSize);
    // Thread the new slab onto the free list in ascending order so freshly
    // grown pools hand out slots 0, 1, 2, ... (deterministic and sequential).
    for (uint32_t i = kSlabSize; i-- > 0;) {
      next_free_[base + i] = free_head_;
      free_head_ = static_cast<Slot>(base + i);
    }
  }

  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<Slot> next_free_;  // parallel to slots: intrusive free list
  Slot free_head_ = kInvalidSlot;
  uint64_t live_ = 0;
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_POOL_H_
