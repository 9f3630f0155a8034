#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/array/raid.h"
#include "src/cache/block_cache.h"
#include "src/core/bus_device.h"
#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

Request MakeReq(int64_t id, int64_t lbn) {
  Request req;
  req.id = id;
  req.lbn = lbn;
  req.block_count = 8;
  return req;
}

TEST(FcfsTest, PreservesArrivalOrder) {
  FcfsScheduler sched;
  for (int i = 0; i < 10; ++i) {
    sched.Add(MakeReq(i, 1000 - i * 100));
  }
  EXPECT_EQ(sched.size(), 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sched.Pop(0.0).id, i);
  }
  EXPECT_TRUE(sched.Empty());
}

TEST(SstfLbnTest, PicksClosestLbn) {
  SstfLbnScheduler sched;
  sched.Add(MakeReq(0, 5000));
  sched.Add(MakeReq(1, 100));
  sched.Add(MakeReq(2, 9000));
  // last_lbn starts at 0 -> closest is 100.
  EXPECT_EQ(sched.Pop(0.0).id, 1);
  // last is now ~107 -> closest is 5000.
  EXPECT_EQ(sched.Pop(0.0).id, 0);
  EXPECT_EQ(sched.Pop(0.0).id, 2);
}

TEST(SstfLbnTest, GreedyCanStarveFarRequest) {
  SstfLbnScheduler sched;
  sched.Add(MakeReq(99, 1000000));
  for (int i = 0; i < 5; ++i) {
    sched.Add(MakeReq(i, i * 10));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(sched.Pop(0.0).id, 99);
  }
  EXPECT_EQ(sched.Pop(0.0).id, 99);
}

TEST(ClookTest, AscendingWithWrap) {
  ClookScheduler sched;
  sched.Add(MakeReq(0, 500));
  sched.Add(MakeReq(1, 100));
  sched.Add(MakeReq(2, 900));
  EXPECT_EQ(sched.Pop(0.0).lbn, 100);
  EXPECT_EQ(sched.Pop(0.0).lbn, 500);
  EXPECT_EQ(sched.Pop(0.0).lbn, 900);
  // Now "behind" 900: new low requests wrap.
  sched.Add(MakeReq(3, 200));
  sched.Add(MakeReq(4, 50));
  EXPECT_EQ(sched.Pop(0.0).lbn, 50);
  EXPECT_EQ(sched.Pop(0.0).lbn, 200);
}

TEST(ClookTest, ServicesAllInOneSweepWhenAhead) {
  ClookScheduler sched;
  std::vector<int64_t> lbns = {700, 300, 500, 100, 900};
  for (size_t i = 0; i < lbns.size(); ++i) {
    sched.Add(MakeReq(static_cast<int64_t>(i), lbns[i]));
  }
  std::vector<int64_t> order;
  while (!sched.Empty()) {
    order.push_back(sched.Pop(0.0).lbn);
  }
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SptfTest, PicksSmallestPositioningTime) {
  MemsDevice device;
  // Park mid-device.
  (void)device.ServiceRequest(MakeReq(0, device.CapacityBlocks() / 2), 0.0);
  SptfScheduler sched(&device);
  const int64_t near = device.CapacityBlocks() / 2 + 40;
  const int64_t far = device.CapacityBlocks() - 100;
  sched.Add(MakeReq(0, far));
  sched.Add(MakeReq(1, near));
  EXPECT_EQ(sched.Pop(0.0).lbn, near);
  EXPECT_EQ(sched.Pop(0.0).lbn, far);
}

TEST(SptfTest, BeatsLbnProxyWhenYDominates) {
  // Two pending requests in the same cylinder (tiny LBN distance) vs a
  // nearby cylinder at the same Y: SPTF must know that the same-cylinder
  // far-Y request is actually the expensive one.
  MemsDevice device;
  const MemsGeometry& geom = device.geometry();
  (void)device.ServiceRequest(MakeReq(0, geom.Encode(MemsAddress{1000, 0, 0, 0})), 0.0);
  // Request A: same cylinder, opposite end in Y (LBN-close).
  const int64_t same_cyl_far_y = geom.Encode(MemsAddress{1000, 0, 26, 0});
  // Request B: 3 cylinders away, same row (LBN-far).
  const int64_t near_x_same_y = geom.Encode(MemsAddress{1003, 0, 1, 0});
  const double cost_a = device.EstimatePositioningMs(MakeReq(0, same_cyl_far_y), 0.0);
  const double cost_b = device.EstimatePositioningMs(MakeReq(1, near_x_same_y), 0.0);
  // The X settle makes B more expensive than A here; SPTF ranks accordingly.
  SptfScheduler sched(&device);
  sched.Add(MakeReq(0, same_cyl_far_y));
  sched.Add(MakeReq(1, near_x_same_y));
  const Request first = sched.Pop(0.0);
  EXPECT_EQ(first.lbn, cost_a <= cost_b ? same_cyl_far_y : near_x_same_y);
}

// Drives `sched` (built on `device`) in lockstep with a naive scan of the
// scalar estimator for `pops` Pops: every Pop must return the first pending
// request of minimum `cost(req, positioning_ms, now_ms)`. Adds, pops,
// service and idle gaps interleave at random; the queue alternates between
// a few and about 40 pending requests; and now and then Reset() returns the
// device to its initial state or, on MEMS, set_sled() moves the sled off
// every cylinder. `min_ties` counts the Pops whose minimum was shared by
// several requests, where only the first-index rule decides.
void ExpectMatchesNaiveScan(
    SptfScheduler* sched, StorageDevice* device,
    const std::function<double(const Request&, double, double)>& cost, int64_t pops,
    int64_t* min_ties) {
  auto* const mems = dynamic_cast<MemsDevice*>(device);
  std::vector<Request> naive;
  Rng rng(77);
  int64_t next_id = 0;
  double now = 0.0;
  for (int64_t popped = 0; popped < pops;) {
    if (rng.Bernoulli(0.2)) {
      now += rng.Uniform(0.0, 30.0);  // idle gap: every pending request ages
    }
    if (rng.Bernoulli(0.002)) {
      device->Reset();
    } else if (mems != nullptr && rng.Bernoulli(0.002)) {
      const MemsParams& params = mems->params();
      const double y_span = params.rows_per_track() * params.row_height_m() / 2.0;
      mems->set_sled(SledState{rng.Uniform(-params.half_range_m(), params.half_range_m()),
                               rng.Uniform(-y_span, y_span),
                               (rng.UniformInt(3) - 1) * params.access_velocity()});
    }
    const size_t depth = (popped / 500) % 2 == 0 ? 4 : 40;
    if (naive.size() < depth || rng.Bernoulli(0.45)) {
      Request req = MakeReq(next_id++, rng.UniformInt(device->CapacityBlocks() - 8));
      req.arrival_ms = now;
      sched->Add(req);
      naive.push_back(req);
    } else {
      size_t best = 0;
      double best_cost = cost(naive[0], device->EstimatePositioningMs(naive[0], now), now);
      int ties = 0;
      for (size_t i = 1; i < naive.size(); ++i) {
        const double c = cost(naive[i], device->EstimatePositioningMs(naive[i], now), now);
        if (c < best_cost) {
          best_cost = c;
          best = i;
          ties = 0;
        } else if (c == best_cost) {
          ++ties;
        }
      }
      *min_ties += ties > 0 ? 1 : 0;
      const Request expected = naive[best];
      naive.erase(naive.begin() + static_cast<int64_t>(best));
      const Request got = sched->Pop(now);
      ASSERT_EQ(got.id, expected.id) << "pop " << popped;
      ++popped;
      // Usually the sled moves; sometimes it does not, so consecutive Pops
      // also run against one sled state.
      if (rng.Bernoulli(0.7)) {
        now += device->ServiceRequest(got, now);
      }
    }
  }
}

// The cost plain SPTF minimizes.
double PositioningCost(const Request&, double pos_ms, double) { return pos_ms; }

// The cost aged SPTF at `weight` minimizes.
std::function<double(const Request&, double, double)> AgedCost(double weight) {
  return [weight](const Request& req, double pos_ms, double now_ms) {
    return std::max(pos_ms - weight * (now_ms - req.arrival_ms), 0.0);
  };
}

TEST(SptfTest, PicksMatchNaiveScan) {
  // The reference scans the pending requests in arrival order with the
  // un-memoized scalar estimate. Plain SPTF on the default bounded-force
  // sled prunes its walk whenever the sled rests on a cylinder; on the
  // resonant spring, whose X leg can shrink outward, it visits every
  // cylinder. Aged SPTF never prunes; it clamps its cost at zero: at weight
  // 1.0 a request clamps after about a millisecond of waiting, at 0.01 only
  // after tens of milliseconds, so both weights reach ties that only the
  // first-index rule resolves. Picks must match exactly, ties included.
  for (const SpringModel spring : {SpringModel::kBoundedForce, SpringModel::kResonant}) {
    SCOPED_TRACE(spring == SpringModel::kResonant ? "resonant" : "bounded-force");
    MemsParams params;
    params.spring_model = spring;
    MemsDevice device(params);
    SptfScheduler sched(&device);
    int64_t ties = 0;
    ExpectMatchesNaiveScan(&sched, &device, PositioningCost, 5000, &ties);
  }
  for (const double weight : {0.01, 1.0}) {
    SCOPED_TRACE(weight);
    MemsDevice device;
    AgedSptfScheduler sched(&device, weight);
    int64_t ties = 0;
    ExpectMatchesNaiveScan(&sched, &device, AgedCost(weight), 5000, &ties);
    EXPECT_GT(ties, 0);
  }
}

// Runs SPTF and aged SPTF (w = 0.01) on `device` in lockstep with the naive
// scan.
void ExpectBothMatchNaiveScan(StorageDevice* device, int64_t pops) {
  int64_t ties = 0;
  SptfScheduler sptf(device);
  ExpectMatchesNaiveScan(&sptf, device, PositioningCost, pops, &ties);
  device->Reset();
  AgedSptfScheduler aged(device, 0.01);
  ExpectMatchesNaiveScan(&aged, device, AgedCost(0.01), pops, &ties);
}

TEST(SptfTest, PicksMatchNaiveScanWithTheDefaultOrder) {
  // Devices that keep StorageDevice's default order: every request under
  // key 0 and no state key, so the walk estimates every pending request.
  {
    SCOPED_TRACE("disk");  // estimates depend on `now`: the disk rotates
    DiskDevice disk;
    ExpectBothMatchNaiveScan(&disk, 3000);
  }
  {
    SCOPED_TRACE("bus over MEMS");
    MemsDevice mems;
    BusDevice bus(BusParams::Ultra2(), &mems);
    ExpectBothMatchNaiveScan(&bus, 3000);
  }
  {
    SCOPED_TRACE("cache over RAID-5 of MEMS");
    std::vector<MemsDevice> members(4);
    RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64},
                   {&members[0], &members[1], &members[2], &members[3]});
    BlockCacheConfig config;
    config.capacity_blocks = 4096;
    BlockCache cache(config, &raid);
    ExpectBothMatchNaiveScan(&cache, 3000);
  }
}

TEST(SptfTest, RequestWithoutKeyDiesInAdd) {
  class KeylessDevice : public MemsDevice {
   public:
    int32_t PositioningKey(const Request&) const override { return kNoKey; }
  };
  KeylessDevice device;
  SptfScheduler sched(&device);
  EXPECT_DEATH(sched.Add(MakeReq(0, 10)), "positioning key");
}

// A device with a scripted positioning order, for the walk's prune and tie
// rules: MEMS legs almost never tie at the prune boundary, these integer
// legs often do. Key = lbn / 100, key leg = |key - state key| ms (0 with no
// state key), and the estimate is max(key leg, lbn % 100 ms). Servicing a
// request moves the state to its key. The leg floor is the default 0, or
// max(leg - 1, 0) with `floors` set, which often equals the best cost at
// the prune boundary: there the walk must take the exact leg, not prune.
class ScriptedOrderDevice : public StorageDevice {
 public:
  const char* name() const override { return "scripted"; }
  int64_t CapacityBlocks() const override { return int64_t{1} << 30; }
  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs,
                                      ServiceBreakdown* = nullptr) override {
    state_key = PositioningKey(req);
    return 1.0;
  }
  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs) const override {
    return Cost(req);
  }
  int32_t PositioningKey(const Request& req) const override {
    return static_cast<int32_t>(req.lbn / 100);
  }
  int32_t StateKey() const override { return state_key; }
  [[nodiscard]] TimeMs KeyLegMs(int32_t key) const override {
    ++key_legs;
    return Leg(key);
  }
  [[nodiscard]] TimeMs KeyLegFloorMs(int32_t key) const override {
    return floors ? std::max(Leg(key) - 1.0, 0.0) : 0.0;
  }
  [[nodiscard]] TimeMs EstimateGivenKeyLeg(const Request& req, TimeMs key_leg_ms,
                                           TimeMs) const override {
    ++estimates;
    return std::max(key_leg_ms, Residual(req));
  }
  void Reset() override { state_key = kNoKey; }

  // The estimate, uncounted.
  TimeMs Cost(const Request& req) const {
    return std::max(Leg(PositioningKey(req)), Residual(req));
  }

  int32_t state_key = kNoKey;
  bool floors = false;
  mutable int64_t key_legs = 0;
  mutable int64_t estimates = 0;

 private:
  static TimeMs Residual(const Request& req) { return static_cast<double>(req.lbn % 100); }
  TimeMs Leg(int32_t key) const {
    return state_key == kNoKey ? 0.0 : static_cast<double>(std::abs(key - state_key));
  }
};

// Request `id` with key `key` and residual `residual` ms on ScriptedOrderDevice.
Request Scripted(int64_t id, int64_t key, int64_t residual) {
  return MakeReq(id, key * 100 + residual);
}

// Removes and returns the id of the first request of minimum cost in
// `naive` (arrival order): the pick every SPTF Pop must make.
int64_t PopNaive(const ScriptedOrderDevice& device, std::vector<Request>* naive) {
  size_t best = 0;
  for (size_t i = 1; i < naive->size(); ++i) {
    if (device.Cost((*naive)[i]) < device.Cost((*naive)[best])) {
      best = i;
    }
  }
  const int64_t id = (*naive)[best].id;
  naive->erase(naive->begin() + static_cast<int64_t>(best));
  return id;
}

// Adds `reqs` in order, then pops them all without moving the state; the
// ids must come out in `expected` order.
void ExpectPopOrder(ScriptedOrderDevice* device, const std::vector<Request>& reqs,
                    const std::vector<int64_t>& expected) {
  SptfScheduler sched(device);
  for (const Request& req : reqs) {
    sched.Add(req);
  }
  std::vector<int64_t> got;
  while (!sched.Empty()) {
    got.push_back(sched.Pop(0.0).id);
  }
  EXPECT_EQ(got, expected);
}

TEST(SptfWalkTest, TieAtThePruneBoundaryGoesToTheEarlierRequest) {
  ScriptedOrderDevice device;
  device.state_key = 50;
  // The earlier request sits in the bucket visited second, and its key leg
  // (3) equals the best cost found so far (3): pruning on >= would miss it.
  // Later bucket above the state:
  ExpectPopOrder(&device, {Scripted(0, 53, 0), Scripted(1, 49, 3)}, {0, 1});
  // ... and below it.
  ExpectPopOrder(&device, {Scripted(0, 47, 0), Scripted(1, 51, 3)}, {0, 1});
  // Both sides at once: the state's own bucket costs 3, both neighbours'
  // legs equal it.
  ExpectPopOrder(&device, {Scripted(0, 47, 0), Scripted(1, 53, 0), Scripted(2, 50, 3)},
                 {0, 1, 2});
}

TEST(SptfWalkTest, EqualCostsGoToTheEarliestAdded) {
  ScriptedOrderDevice device;
  device.state_key = 50;
  // Inside one bucket (visited newest first).
  ExpectPopOrder(&device, {Scripted(0, 52, 1), Scripted(1, 52, 2), Scripted(2, 60, 0)},
                 {0, 1, 2});
  // Across the state's own bucket and a neighbour, on each side.
  ExpectPopOrder(&device, {Scripted(0, 51, 0), Scripted(1, 50, 1)}, {0, 1});
  ExpectPopOrder(&device, {Scripted(0, 49, 0), Scripted(1, 50, 1)}, {0, 1});
  // A later request of lower cost still wins.
  ExpectPopOrder(&device, {Scripted(0, 52, 0), Scripted(1, 50, 1)}, {1, 0});
}

TEST(SptfWalkTest, NoStateKeyEstimatesEveryRequest) {
  ScriptedOrderDevice device;
  SptfScheduler sched(&device);
  for (int64_t id = 0; id < 5; ++id) {
    sched.Add(Scripted(id, 10 * id, 9 - id));
  }
  EXPECT_EQ(sched.Pop(0.0).id, 4);  // the smallest residual
  EXPECT_EQ(device.estimates, 5);
  EXPECT_EQ(device.key_legs, 5);
}

TEST(SptfWalkTest, DepthOneEstimatesNothing) {
  ScriptedOrderDevice device;
  SptfScheduler sched(&device);
  for (const int32_t state : {ScriptedOrderDevice::kNoKey, 7}) {
    device.state_key = state;
    sched.Add(Scripted(0, 3, 5));
    EXPECT_EQ(sched.Pop(0.0).id, 0);
  }
  EXPECT_EQ(device.estimates, 0);
  EXPECT_EQ(device.key_legs, 0);
}

TEST(SptfWalkTest, ResetMidRunStartsClean) {
  ScriptedOrderDevice device;
  device.state_key = 20;
  SptfScheduler sched(&device);
  for (int64_t id = 0; id < 6; ++id) {
    sched.Add(Scripted(id, 18 + id, 0));
  }
  EXPECT_EQ(sched.Pop(0.0).id, 2);  // key 20
  sched.Reset();
  EXPECT_TRUE(sched.Empty());
  // Fresh requests, some on the keys the dropped ones held.
  sched.Add(Scripted(10, 23, 0));
  sched.Add(Scripted(11, 30, 0));
  sched.Add(Scripted(12, 19, 0));
  EXPECT_EQ(sched.size(), 3);
  EXPECT_EQ(sched.Pop(0.0).id, 12);
  // A device Reset() leaves no state key: the next Pop estimates both
  // requests, one per key.
  device.Reset();
  const int64_t estimates = device.estimates;
  EXPECT_EQ(sched.Pop(0.0).id, 10);  // first added; both costs are 0
  EXPECT_EQ(device.estimates, estimates + 2);
  EXPECT_EQ(sched.Pop(0.0).id, 11);
  EXPECT_TRUE(sched.Empty());
}

TEST(SptfWalkTest, KeysBeyondAnySeenBefore) {
  ScriptedOrderDevice device;
  device.state_key = 3;
  SptfScheduler sched(&device);
  for (int64_t id = 0; id < 5; ++id) {
    sched.Add(Scripted(id, id, 0));
  }
  EXPECT_EQ(sched.Pop(0.0).id, 3);
  // A key far above every key so far, next to the state.
  device.state_key = 4999;
  sched.Add(Scripted(5, 5000, 0));
  EXPECT_EQ(sched.Pop(0.0).id, 5);
  // A state key above every bucket: the walk runs downward only.
  device.state_key = 9000;
  EXPECT_EQ(sched.Pop(0.0).id, 4);
  EXPECT_EQ(sched.Pop(0.0).id, 2);
}

TEST(SptfWalkTest, DeepQueueVisitsAHandfulOfKeys) {
  // 1,000 pending requests, one per key, residuals 0-2 ms, state mid-range:
  // the best cost is at most 2 ms, so each Pop visits keys within 2 of the
  // state plus one pruned key per side.
  ScriptedOrderDevice device;
  device.state_key = 500;
  SptfScheduler sched(&device);
  std::vector<Request> naive;
  for (int64_t key = 0; key < 1000; ++key) {
    naive.push_back(Scripted(key, key, key % 3));
    sched.Add(naive.back());
  }
  for (int pop = 0; pop < 200; ++pop) {
    const int64_t legs = device.key_legs;
    const int64_t expected = PopNaive(device, &naive);
    const Request got = sched.Pop(0.0);
    ASSERT_EQ(got.id, expected) << "pop " << pop;
    ASSERT_LE(device.key_legs - legs, 8) << "pop " << pop;
    (void)device.ServiceRequest(got, 0.0);
  }
}

// Integer legs and residuals on 60 keys: most Pops meet ties, many at the
// prune boundary. Device and scheduler resets interleave.
void ExpectRandomizedPopsMatchNaiveScan(bool floors) {
  ScriptedOrderDevice device;
  device.floors = floors;
  SptfScheduler sched(&device);
  std::vector<Request> naive;
  Rng rng(2024);
  int64_t next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.Bernoulli(0.001)) {
      sched.Reset();
      naive.clear();
    } else if (rng.Bernoulli(0.005)) {
      device.Reset();
    }
    if (naive.empty() || rng.Bernoulli(0.5)) {
      naive.push_back(Scripted(next_id++, rng.UniformInt(60), rng.UniformInt(10)));
      sched.Add(naive.back());
    } else {
      const int64_t expected = PopNaive(device, &naive);
      const Request got = sched.Pop(0.0);
      ASSERT_EQ(got.id, expected) << "step " << step;
      if (rng.Bernoulli(0.8)) {
        (void)device.ServiceRequest(got, 0.0);
      }
    }
  }
}

TEST(SptfWalkTest, RandomizedMatchesNaiveScan) { ExpectRandomizedPopsMatchNaiveScan(false); }

TEST(SptfWalkTest, RandomizedMatchesNaiveScanWithLegFloors) {
  ExpectRandomizedPopsMatchNaiveScan(true);
}

TEST(SptfWalkTest, FloorsSettleThePruneTest) {
  // Requests at keys 44, 47, 50, 53 and 56, residual 0, state 50: the best
  // cost (0) sits in the state's own bucket, and the next key on each side
  // has leg 3. A floor of 0 cannot prune them, so both legs are computed;
  // floors of 2 prune them unseen.
  for (const bool floors : {false, true}) {
    SCOPED_TRACE(floors);
    ScriptedOrderDevice device;
    device.floors = floors;
    device.state_key = 50;
    SptfScheduler sched(&device);
    for (const int64_t key : {44, 47, 50, 53, 56}) {
      sched.Add(Scripted(key, key, 0));
    }
    EXPECT_EQ(sched.Pop(0.0).id, 50);
    EXPECT_EQ(device.estimates, 1);
    EXPECT_EQ(device.key_legs, floors ? 1 : 3);
  }
  // One request per key 40-60, residual 2, state 50: keys 48-52 all cost
  // 2, and the earliest added of them wins. Keys 47 and 53 have floor 2,
  // equal to the best cost, so the walk takes their legs (3), which prune.
  ScriptedOrderDevice device;
  device.floors = true;
  device.state_key = 50;
  SptfScheduler sched(&device);
  for (int64_t key = 40; key <= 60; ++key) {
    sched.Add(Scripted(key, key, 2));
  }
  EXPECT_EQ(sched.Pop(0.0).id, 48);
  EXPECT_EQ(device.estimates, 5);  // keys 48-52
  EXPECT_EQ(device.key_legs, 7);   // and the legs of keys 47 and 53
}

// Counts the walk's key legs.
class CountingMemsDevice : public MemsDevice {
 public:
  [[nodiscard]] TimeMs KeyLegMs(int32_t key) const override {
    ++key_legs;
    return MemsDevice::KeyLegMs(key);
  }

  mutable int64_t key_legs = 0;
};

class CountingSptf : public SptfScheduler {
 public:
  using SptfScheduler::SptfScheduler;
  Request Pop(TimeMs now_ms) override {
    ++pops;
    return SptfScheduler::Pop(now_ms);
  }
  int64_t pops = 0;
};

// Runs the paper's random workload open loop at `rate_per_s` through MEMS +
// SPTF and checks the selection work: at most `max_legs_per_pop` exact key
// legs per Pop. A walk that silently stops pruning (about 20 legs per Pop)
// fails here, and so does one that ignores the leg floors (3.2 and 4.5).
void ExpectWalkWorkBound(double rate_per_s, int64_t count, double max_legs_per_pop) {
  CountingMemsDevice device;
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate_per_s;
  config.request_count = count;
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(1);
  const std::vector<Request> requests = GenerateRandomWorkload(config, rng);
  CountingSptf sched(&device);
  const ExperimentResult result = mstk::Run(&device, &sched, requests);
  ASSERT_EQ(result.metrics.completed(), count);
  ASSERT_GT(sched.pops, count / 2);
  const double legs_per_pop =
      static_cast<double>(device.key_legs) / static_cast<double>(sched.pops);
  EXPECT_LE(legs_per_pop, max_legs_per_pop);
  ::testing::Test::RecordProperty("key_legs_per_pop", std::to_string(legs_per_pop));
}

// Seed 1 reads 1.47 legs per Pop at 1800 req/s and 2.56 at 3000 req/s.
TEST(SptfWalkTest, WorkBoundAt1800ReqPerS) { ExpectWalkWorkBound(1800.0, 20000, 1.6); }

TEST(SptfWalkTest, WorkBoundWhenOverloaded) { ExpectWalkWorkBound(3000.0, 20000, 2.8); }

TEST(AgedSptfTest, AgingPromotesOldRequests) {
  MemsDevice device;
  (void)device.ServiceRequest(MakeReq(0, 0), 0.0);
  AgedSptfScheduler sched(&device, /*age_weight=*/0.5);
  Request old_far = MakeReq(0, device.CapacityBlocks() - 100);
  old_far.arrival_ms = 0.0;
  Request new_near = MakeReq(1, 50);
  new_near.arrival_ms = 99.0;
  sched.Add(old_far);
  sched.Add(new_near);
  // At now=100 the old request has 100 ms of age credit (50 ms discount),
  // which dwarfs the < 1 ms positioning difference.
  EXPECT_EQ(sched.Pop(100.0).id, 0);
}

TEST(AgedSptfTest, AgeCreditSaturatesAtZeroCost) {
  // With an unbounded age discount, two long-starved requests keep competing
  // on (pos - credit), so a slightly *younger but nearer* request keeps
  // winning forever and the far one never drains. The clamp at zero makes
  // every saturated request tie, and the earliest-added tie rule then serves
  // them in FIFO order. The sled rests on the near request's cylinder, so
  // only a walk that prunes nothing reaches the far one.
  MemsDevice device;
  (void)device.ServiceRequest(MakeReq(0, 0), 0.0);
  AgedSptfScheduler sched(&device, /*age_weight=*/1.0);
  Request far_old = MakeReq(0, device.CapacityBlocks() - 100);
  far_old.arrival_ms = 0.0;
  Request near_newer = MakeReq(1, 50);
  near_newer.arrival_ms = 0.2;
  // Premise: the positioning gap exceeds the 0.2 ms age-credit gap, so the
  // unclamped formula (pos - credit) would rank the newer-but-nearer request
  // first forever: pos_near - 99.8 < pos_far - 100.
  ASSERT_GT(device.EstimatePositioningMs(far_old, 100.0) -
                device.EstimatePositioningMs(near_newer, 100.0),
            0.2);
  sched.Add(far_old);
  sched.Add(near_newer);
  // At now=100 both credits dwarf the positioning estimates, so the clamp
  // saturates both effective costs at 0 and the first-index tie-break serves
  // arrival order instead.
  EXPECT_EQ(sched.Pop(100.0).id, 0);
}

TEST(AgedSptfTest, BoundedStarvationWithoutScvBlowup) {
  // The paper's aged-SPTF tradeoff: a small age weight should tame the
  // response-time tail (lower SCV) without giving up SPTF's throughput.
  // This guards the clamp change: saturating the discount at zero must not
  // reintroduce the starvation the aging exists to prevent.
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = 1500.0;
  config.request_count = 4000;
  MemsDevice sptf_device;
  config.capacity_blocks = sptf_device.CapacityBlocks();
  Rng rng(5);
  const std::vector<Request> requests = GenerateRandomWorkload(config, rng);

  SptfScheduler sptf(&sptf_device);
  const ExperimentResult base = mstk::Run(&sptf_device, &sptf, requests);

  MemsDevice aged_device;
  AgedSptfScheduler aged(&aged_device, /*age_weight=*/0.01);
  const ExperimentResult shaped = mstk::Run(&aged_device, &aged, requests);

  EXPECT_LE(shaped.ResponseScv(), base.ResponseScv());
  EXPECT_LT(shaped.metrics.response_time().max(),
            base.metrics.response_time().max());
  // The fairness knob costs little mean performance at this weight.
  EXPECT_LT(shaped.MeanResponseMs(), base.MeanResponseMs() * 1.5);
}

TEST(SchedulerResetTest, AllSchedulersClearState) {
  MemsDevice device;
  FcfsScheduler fcfs;
  SstfLbnScheduler sstf;
  ClookScheduler clook;
  SptfScheduler sptf(&device);
  for (IoScheduler* s :
       {static_cast<IoScheduler*>(&fcfs), static_cast<IoScheduler*>(&sstf),
        static_cast<IoScheduler*>(&clook), static_cast<IoScheduler*>(&sptf)}) {
    s->Add(MakeReq(0, 10));
    s->Add(MakeReq(1, 20));
    EXPECT_EQ(s->size(), 2) << s->name();
    s->Reset();
    EXPECT_TRUE(s->Empty()) << s->name();
    EXPECT_EQ(s->size(), 0) << s->name();
  }
}

// Property: every scheduler is work-conserving and loses no requests.
class SchedulerConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerConservationTest, AllRequestsPoppedExactlyOnce) {
  MemsDevice device;
  FcfsScheduler fcfs;
  SstfLbnScheduler sstf;
  ClookScheduler clook;
  SptfScheduler sptf(&device);
  IoScheduler* scheds[] = {&fcfs, &sstf, &clook, &sptf};
  IoScheduler* sched = scheds[GetParam()];

  Rng rng(101);
  std::vector<bool> seen(200, false);
  int64_t added = 0;
  int64_t popped = 0;
  // Interleave adds and pops.
  while (popped < 200) {
    if (added < 200 && (rng.Bernoulli(0.6) || sched->Empty())) {
      sched->Add(MakeReq(added, rng.UniformInt(device.CapacityBlocks() - 8)));
      ++added;
    } else {
      const Request req = sched->Pop(static_cast<double>(popped));
      ASSERT_GE(req.id, 0);
      ASSERT_LT(req.id, 200);
      ASSERT_FALSE(seen[static_cast<size_t>(req.id)]) << sched->name();
      seen[static_cast<size_t>(req.id)] = true;
      ++popped;
    }
  }
  EXPECT_TRUE(sched->Empty());
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerConservationTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace mstk
