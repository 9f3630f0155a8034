// Shortest Positioning Time First (§4.1 [SCO90, JW91]): picks the pending
// request with the smallest true positioning delay, computed by the device
// model — seek + rotational latency on disks, max(X seek + settle, Y seek)
// on MEMS-based storage.
//
// Each Pop estimates the whole queue with one EstimatePositioningBatch
// call, which lets the device share per-state work across the scan, and
// returns the first index of the minimum cost. Nothing is kept between
// Pops: the device services the popped request before the next Pop, which
// moves the mechanism every estimate depends on (and disk estimates also
// depend on the time), so an earlier estimate is never valid again. With
// one request pending there is nothing to choose, and Pop estimates
// nothing.
//
// AgedSptfScheduler adds the aging term of [WGP94]: effective cost =
// max(positioning - age_weight * queue_time, 0), trading a little
// throughput for starvation resistance. The clamp keeps a starved
// request's priority from running away to arbitrarily negative values —
// once several requests hit the floor they dispatch in FIFO order, which
// bounds starvation without letting stale requests monopolize the device.
#ifndef MSTK_SRC_SCHED_SPTF_H_
#define MSTK_SRC_SCHED_SPTF_H_

#include <cstdint>
#include <vector>

#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"
#include "src/sim/units.h"

namespace mstk {

class SptfScheduler : public IoScheduler {
 public:
  // `device` is borrowed; used only through the positioning estimators.
  explicit SptfScheduler(const StorageDevice* device) : device_(device) {}

  const char* name() const override { return "SPTF"; }
  void Add(const Request& req) override { pending_.push_back(req); }
  bool Empty() const override { return pending_.empty(); }
  int64_t size() const override { return static_cast<int64_t>(pending_.size()); }
  Request Pop(TimeMs now_ms) override;
  bool PassThroughWhenEmpty() const override { return true; }
  void Reset() override { pending_.clear(); }

 protected:
  // Selection cost of `req` given its positioning estimate; subclasses
  // refine it.
  virtual double EffectiveCost(const Request& req, TimeMs pos_ms, TimeMs now_ms) const {
    (void)req;
    (void)now_ms;
    return pos_ms;
  }

 private:
  const StorageDevice* device_;
  std::vector<Request> pending_;  // arrival order (erase preserves it)
  std::vector<TimeMs> pos_ms_;    // Pop's estimates, kept to avoid per-Pop allocation
};

class AgedSptfScheduler : public SptfScheduler {
 public:
  AgedSptfScheduler(const StorageDevice* device, double age_weight)
      : SptfScheduler(device), age_weight_(age_weight) {}

  const char* name() const override { return "ASPTF"; }

 protected:
  double EffectiveCost(const Request& req, TimeMs pos_ms, TimeMs now_ms) const override;

 private:
  double age_weight_;
};

}  // namespace mstk

#endif  // MSTK_SRC_SCHED_SPTF_H_
