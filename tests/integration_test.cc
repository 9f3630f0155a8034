// End-to-end regression tests pinning the qualitative results of every
// paper experiment (scaled down for test speed). If a model change flips
// one of the paper's findings, these fail.
#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/layout/layout_policy.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {
namespace {

std::vector<Request> Random(StorageDevice& device, double rate, int64_t n,
                            uint64_t seed) {
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate;
  config.request_count = n;
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(seed);
  return GenerateRandomWorkload(config, rng);
}

struct FourWay {
  double fcfs, sstf, clook, sptf;
};

FourWay RunFour(StorageDevice& device, const std::vector<Request>& requests) {
  FcfsScheduler fcfs;
  SstfLbnScheduler sstf;
  ClookScheduler clook;
  SptfScheduler sptf(&device);
  return FourWay{mstk::Run(&device, &fcfs, requests).MeanResponseMs(),
                 mstk::Run(&device, &sstf, requests).MeanResponseMs(),
                 mstk::Run(&device, &clook, requests).MeanResponseMs(),
                 mstk::Run(&device, &sptf, requests).MeanResponseMs()};
}

TEST(IntegrationTest, Fig5DiskSchedulerOrdering) {
  DiskDevice disk;
  const FourWay r = RunFour(disk, Random(disk, 150.0, 4000, 1));
  // Paper Fig 5(a): FCFS saturates; SSTF_LBN < C-LOOK; SPTF best.
  EXPECT_GT(r.fcfs, 5.0 * r.clook);
  EXPECT_LT(r.sstf, r.clook);
  EXPECT_LT(r.sptf, r.sstf);
}

TEST(IntegrationTest, Fig5FairnessOrdering) {
  DiskDevice disk;
  FcfsScheduler fcfs;
  SstfLbnScheduler sstf;
  ClookScheduler clook;
  const auto requests = Random(disk, 150.0, 4000, 2);
  const double scv_sstf = mstk::Run(&disk, &sstf, requests).ResponseScv();
  const double scv_clook = mstk::Run(&disk, &clook, requests).ResponseScv();
  // Paper Fig 5(b): C-LOOK resists starvation better than SSTF_LBN.
  EXPECT_LT(scv_clook, scv_sstf);
}

TEST(IntegrationTest, Fig6MemsSchedulerOrdering) {
  MemsDevice mems;
  const FourWay r = RunFour(mems, Random(mems, 1600.0, 5000, 3));
  EXPECT_GT(r.fcfs, 3.0 * r.clook);  // FCFS saturates far earlier
  EXPECT_LE(r.sptf, r.sstf + 1e-9);
  EXPECT_LT(r.sstf, r.clook);
}

TEST(IntegrationTest, Fig6GapBetweenLbnSchedulersShrinksOnMems) {
  // §4.2: C-LOOK vs SSTF_LBN difference is relatively smaller on MEMS than
  // on the disk (both reduce X seeks into the settle-dominated regime).
  DiskDevice disk;
  MemsDevice mems;
  const FourWay d = RunFour(disk, Random(disk, 140.0, 4000, 4));
  const FourWay m = RunFour(mems, Random(mems, 1500.0, 4000, 4));
  const double disk_gap = d.clook / d.sstf;
  const double mems_gap = m.clook / m.sstf;
  EXPECT_LT(mems_gap, disk_gap);
}

TEST(IntegrationTest, Fig7TpccSptfMarginLarge) {
  // §4.3: on the scaled TPC-C workload SPTF wins by a much larger margin.
  MemsDevice mems;
  TpccLikeConfig config;
  config.request_count = 8000;
  config.capacity_blocks = mems.CapacityBlocks();
  config.scale = 10.0;
  Rng rng(37);
  const auto requests = GenerateTpccLike(config, rng);
  SstfLbnScheduler sstf;
  SptfScheduler sptf(&mems);
  const double t_sstf = mstk::Run(&mems, &sstf, requests).MeanResponseMs();
  const double t_sptf = mstk::Run(&mems, &sptf, requests).MeanResponseMs();
  EXPECT_GT(t_sstf / t_sptf, 2.0);
}

TEST(IntegrationTest, Fig8SettleGovernsSptfAdvantage) {
  MemsParams no_settle;
  no_settle.settle_constants = 0.0;
  MemsParams two_settle;
  two_settle.settle_constants = 2.0;
  MemsDevice fast(no_settle);
  MemsDevice slow(two_settle);
  // Load each near its own saturation.
  const FourWay r0 = RunFour(fast, Random(fast, 2400.0, 5000, 5));
  const FourWay r2 = RunFour(slow, Random(slow, 1300.0, 5000, 5));
  // Zero settle: SPTF far ahead of SSTF_LBN. Two constants: nearly equal.
  EXPECT_GT(r0.sstf / r0.sptf, 2.0);
  EXPECT_NEAR(r2.sstf / r2.sptf, 1.0, 0.12);
}

TEST(IntegrationTest, Fig10LargeTransferPenaltySmall) {
  MemsDevice mems;
  const MemsGeometry& geom = mems.geometry();
  Request park;
  park.lbn = 0;
  park.block_count = 20;
  (void)mems.ServiceRequest(park, 0.0);
  MemsDevice near_dev = mems;
  MemsDevice far_dev = mems;
  Request req;
  req.block_count = 512;
  req.lbn = geom.Encode(MemsAddress{10, 0, 0, 0});
  const double t_near = near_dev.ServiceRequest(req, 0.0);
  req.lbn = geom.Encode(MemsAddress{2400, 0, 0, 0});
  const double t_far = far_dev.ServiceRequest(req, 0.0);
  // §5.2: full-stroke X seeks add only ~10-20% to a 256 KB request.
  EXPECT_LT(t_far / t_near, 1.25);
}

TEST(IntegrationTest, Fig11LayoutsBeatSimple) {
  // Scaled-down Fig 11: both bipartite layouts and organ-pipe beat an
  // aged/scattered placement for the small-request-dominated mix.
  MemsDevice mems;
  const MemsGeometry& geom = mems.geometry();
  const int64_t small_pool = 100000;
  const int64_t large_pool = 400 * 800;
  LayoutSpec spec;
  spec.geometry = &geom;
  spec.hot_blocks = small_pool;
  spec.cold_blocks = large_pool;
  const ExtentLayout subregioned = FindLayoutPolicy("subregioned")->Build(spec);
  const ExtentLayout columnar = FindLayoutPolicy("columnar")->Build(spec);

  Rng rng(7);
  // Scattered "simple": random placements.
  std::vector<int64_t> scattered(2000);
  for (auto& lbn : scattered) {
    lbn = rng.UniformInt(mems.CapacityBlocks() - 8);
  }
  auto measure_simple = [&] {
    mems.Reset();
    double total = 0.0;
    for (const int64_t lbn : scattered) {
      Request req;
      req.lbn = lbn;
      req.block_count = 8;
      total += mems.ServiceRequest(req, 0.0);
    }
    return total / static_cast<double>(scattered.size());
  };
  auto measure_layout = [&](const LayoutMap& layout) {
    mems.Reset();
    Rng lrng(9);
    double total = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const int64_t logical = lrng.UniformInt(small_pool / 8) * 8;
      for (const PhysExtent& e : layout.MapExtent(logical, 8)) {
        Request req;
        req.lbn = e.lbn;
        req.block_count = e.blocks;
        total += mems.ServiceRequest(req, 0.0);
      }
    }
    return total / 2000.0;
  };
  const double simple_ms = measure_simple();
  EXPECT_LT(measure_layout(subregioned), simple_ms);
  EXPECT_LT(measure_layout(columnar), simple_ms);
}

TEST(IntegrationTest, TableTwoRegressionValues) {
  // Pin the Table 2 reproduction within tight bands.
  MemsDevice mems;
  DiskDevice disk;
  // MEMS 8-sector RMW total ~0.32-0.33 ms (paper 0.33).
  const int64_t lbn = mems.geometry().Encode(MemsAddress{1250, 2, 13, 0});
  Request req;
  req.lbn = lbn;
  req.block_count = 8;
  const double a = mems.ServiceRequest(req, 0.0);
  (void)a;
  ServiceBreakdown rd;
  const double read_ms = mems.ServiceRequest(req, 5.0, &rd);
  req.type = IoType::kWrite;
  ServiceBreakdown wr;
  (void)mems.ServiceRequest(req, 5.0 + read_ms, &wr);
  // Table 2 accounting: read transfer + reposition + write transfer.
  const double mems_total = rd.transfer_ms + wr.positioning_ms + wr.transfer_ms;
  EXPECT_NEAR(mems_total, 0.33, 0.04);
  // Disk 334-sector RMW total ~12 ms (paper 12.00): full-track read, zero
  // reposition, full-track write.
  Request track;
  track.lbn = 0;
  track.block_count = 334;
  (void)disk.ServiceRequest(track, 0.0);
  ServiceBreakdown dr;
  const double t_read = disk.ServiceRequest(track, 100.0, &dr);
  track.type = IoType::kWrite;
  ServiceBreakdown dw;
  (void)disk.ServiceRequest(track, 100.0 + t_read, &dw);
  const double disk_total = dr.transfer_ms + dw.positioning_ms + dw.transfer_ms;
  EXPECT_NEAR(disk_total, 12.0, 0.2);
}

TEST(IntegrationTest, MemsOrderOfMagnitudeFasterThanDisk) {
  // The headline: same workload, ~10x service-time advantage.
  MemsDevice mems;
  DiskDevice disk;
  FcfsScheduler sched;
  const auto m = mstk::Run(&mems, &sched, Random(mems, 50.0, 2000, 11));
  const auto d = mstk::Run(&disk, &sched, Random(disk, 50.0, 2000, 11));
  EXPECT_GT(d.MeanServiceMs() / m.MeanServiceMs(), 8.0);
}

}  // namespace
}  // namespace mstk
