// Shortest Positioning Time First (§4.1 [SCO90, JW91]): picks the pending
// request with the smallest true positioning delay, computed by the device
// model — seek + rotational latency on disks, max(X seek + settle, Y seek)
// on MEMS-based storage. Ties go to the request added first.
//
// Pop finds it with one exact walk over the device's positioning order
// (StorageDevice::PositioningKey and its contract). Pending requests sit
// in per-key buckets. Pop visits occupied keys outward from the state's
// key, always taking the side whose next key leg (MEMS: X leg) is smaller,
// and stops once the next key's bound, KeyBound(leg), is strictly greater
// than the best cost found: every request's cost is at least its key's
// bound, and legs never shrink outward, so no unvisited request can win or
// tie. A bound equal to the best cost is visited, because a request there
// may tie with a lower add sequence. Each side first holds its next key's
// leg floor (KeyLegFloorMs), and asks for the exact leg only when that
// floor comes up smallest and its bound does not prune: the last key of
// each side, which serves only the prune test, mostly goes without its
// leg. A visited key's exact leg is computed once and gives the cost of
// every request in its bucket. While the state rests on no key (a device
// that keeps the default order, the resonant MEMS spring, a fresh or
// Reset() sled, or after set_sled()), the walk visits every occupied key
// upward from 0 and prunes nothing. On the MEMS random workload at 1800
// req/s a Pop computes about 1.5 exact key legs where estimating every
// pending request would take about 20.
//
// Nothing is kept between Pops: the device services the popped request
// before the next Pop, which moves the mechanism every estimate depends on.
// With one request pending there is nothing to choose, and Pop estimates
// nothing. Add is O(1); pending requests live in one dense vector
// (removal swaps in the last one), and the buckets are intrusive lists
// over it, so Pop allocates nothing in steady state. Memory is O(queue)
// plus O(largest key seen).
//
// AgedSptfScheduler adds the aging term of [WGP94]: effective cost =
// max(positioning - age_weight * queue_time, 0), trading a little
// throughput for starvation resistance. The clamp keeps a starved
// request's priority from running away to arbitrarily negative values —
// once several requests hit the floor they dispatch in FIFO order, which
// bounds starvation without letting stale requests monopolize the device.
// Any request may have aged to the floor, so its KeyBound is 0 and its
// walk prunes nothing.
#ifndef MSTK_SRC_SCHED_SPTF_H_
#define MSTK_SRC_SCHED_SPTF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"
#include "src/sim/units.h"

namespace mstk {

class SptfScheduler : public IoScheduler {
 public:
  // `device` is borrowed; used only through its positioning order.
  explicit SptfScheduler(const StorageDevice* device) : device_(device) {}

  const char* name() const override { return "SPTF"; }
  // Dies unless the device gives `req` a key >= 0.
  void Add(const Request& req) override;
  bool Empty() const override { return pending_.empty(); }
  int64_t size() const override { return static_cast<int64_t>(pending_.size()); }
  Request Pop(TimeMs now_ms) override;
  bool PassThroughWhenEmpty() const override { return true; }
  void Reset() override;

 protected:
  // Selection cost of `req` given its positioning estimate; subclasses
  // refine it.
  virtual double EffectiveCost(const Request& req, TimeMs pos_ms, TimeMs now_ms) const {
    (void)req;
    (void)now_ms;
    return pos_ms;
  }

  // Lower bound on the EffectiveCost of any request whose key leg is `leg`.
  // It must not decrease as the leg grows.
  virtual double KeyBound(TimeMs leg) const { return leg; }

 private:
  // Bookkeeping of pending_[i]: add sequence, key, and its neighbours in
  // the key's bucket (-1 at either end).
  struct Entry {
    int64_t seq;
    int32_t key;
    int32_t prev;
    int32_t next;
  };

  // Index of the pending request to dispatch.
  std::size_t Walk(TimeMs now_ms);
  // The tie rule: pending_[a] was added before pending_[b].
  bool AddedBefore(std::size_t a, std::size_t b) const { return entries_[a].seq < entries_[b].seq; }
  // Smallest occupied key >= `key` (>= 0), or -1.
  int32_t OccupiedAtOrAbove(int32_t key) const;
  // Largest occupied key <= `key`, or -1.
  int32_t OccupiedAtOrBelow(int32_t key) const;
  Entry& At(int32_t slot) { return entries_[static_cast<std::size_t>(slot)]; }
  // The link that points at the entry after `prev` in `key`'s bucket:
  // prev's next, or the bucket's head when prev is -1.
  int32_t& Link(int32_t prev, int32_t key);
  // Points the bucket neighbours of entries_[slot] (or its bucket's head)
  // at `slot`.
  void Attach(int32_t slot);
  // Unlinks pending_[i] from its bucket and fills its place with the last
  // pending request.
  void Remove(std::size_t i);

  const StorageDevice* device_;
  std::vector<Request> pending_;    // in no particular order
  std::vector<Entry> entries_;      // parallel to pending_
  std::vector<int32_t> head_;       // per key: first index of its bucket, or -1
  std::vector<uint64_t> occupied_;  // bit k set iff key k's bucket is not empty
  int64_t next_seq_ = 0;
};

class AgedSptfScheduler : public SptfScheduler {
 public:
  AgedSptfScheduler(const StorageDevice* device, double age_weight)
      : SptfScheduler(device), age_weight_(age_weight) {}

  const char* name() const override { return "ASPTF"; }

 protected:
  double EffectiveCost(const Request& req, TimeMs pos_ms, TimeMs now_ms) const override;
  double KeyBound(TimeMs /*leg*/) const override { return 0.0; }

 private:
  double age_weight_;
};

}  // namespace mstk

#endif  // MSTK_SRC_SCHED_SPTF_H_
