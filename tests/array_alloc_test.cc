// Allocation guard for the array fan-out: a steady-state array request
// through ArrayManager, or through a RaidArray under a host Driver,
// allocates nothing on the heap. The binary replaces the global operator new
// and delete with counting versions, so it is its own ctest executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/array/array_manager.h"
#include "src/array/raid.h"
#include "src/core/driver.h"
#include "src/fault/injector.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workload/random_workload.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Out of line, so that GCC does not inline free() into a call site whose
// pointer came from operator new and warn about the pairing.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  Release(p);
}

namespace mstk {
namespace {

constexpr int kActive = 8;
constexpr int kDevices = kActive + 1;  // one hot spare
constexpr double kRatePerS = 800.0;

// RAID-5 over MEMS members with SPTF and seeded fault injectors (transient
// and permanent faults, remapped onto spare tips), driven open loop by the
// §3 random workload one arrival at a time.
struct AllocRig {
  AllocRig() {
    std::vector<StorageDevice*> facing;
    std::vector<FaultModel*> models;
    for (int d = 0; d < kDevices; ++d) {
      devices.push_back(std::make_unique<MemsDevice>());
      facing.push_back(devices.back().get());
      FaultInjectorConfig fault;
      fault.transient_rate = 0.01;
      fault.permanent_rate = 0.0002;
      fault.spares = 64;
      injectors.push_back(std::make_unique<FaultInjector>(
          fault, devices.back()->CapacityBlocks(), 1000 + static_cast<uint64_t>(d)));
      models.push_back(injectors.back().get());
    }
    ArrayManagerConfig config;
    config.raid = RaidConfig{RaidLevel::kRaid5, 64};
    config.active_members = kActive;
    config.member_extent_blocks = 16384;
    config.rebuild_policy = RebuildPolicy::kIdle;
    config.rebuild_chunk_blocks = 512;
    metrics.set_exclude_background(true);
    manager = std::make_unique<ArrayManager>(&sim, config, facing, MakeSptfFactory(), &metrics);
    RecoveryPolicy recovery;
    recovery.max_retries = 5;
    manager->AttachFaultModels(models, recovery);

    RandomWorkloadConfig workload;
    workload.arrival_rate_per_s = kRatePerS;
    workload.request_count = 40000;
    workload.capacity_blocks = manager->CapacityBlocks();
    Rng rng(11);
    stream = GenerateRandomWorkload(workload, rng);
  }

  // Submits the next `count` requests of the stream at their arrival times
  // and returns the heap allocations made meanwhile.
  int64_t Drive(int64_t count) {
    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int64_t i = 0; i < count; ++i) {
      const Request& req = stream.at(static_cast<size_t>(next));
      ++next;
      sim.RunUntil(req.arrival_ms);
      manager->Submit(req);
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
  }

  Simulator sim;
  MetricsCollector metrics;
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::unique_ptr<ArrayManager> manager;
  std::vector<Request> stream;
  int64_t next = 0;
};

constexpr int64_t kWarmup = 2000;
constexpr int64_t kMeasured = 4000;
// A steady-state array request allocates nothing; the bound leaves room
// for the rare permanent fault (a defect-set node) and the array
// collector's response samples, which grow by doubling.
constexpr double kMaxAllocationsPerRequest = 0.1;

TEST(ArrayAllocationTest, OptimalAndDegradedRequestsDoNotAllocate) {
  AllocRig rig;
  ArrayManager& mgr = *rig.manager;
  // Spend the spare, so the member failure below leaves the array degraded.
  mgr.FailDevice(kActive, 0.0);

  rig.Drive(kWarmup);
  ASSERT_EQ(mgr.state(), ArrayState::kOptimal);
  const int64_t optimal = rig.Drive(kMeasured);
  EXPECT_EQ(mgr.state(), ArrayState::kOptimal);
  EXPECT_LT(static_cast<double>(optimal) / kMeasured, kMaxAllocationsPerRequest)
      << optimal << " allocations over " << kMeasured << " optimal requests";

  mgr.FailDevice(0, rig.sim.NowMs());
  rig.Drive(kWarmup);
  ASSERT_EQ(mgr.state(), ArrayState::kDegraded);
  const int64_t degraded = rig.Drive(kMeasured);
  EXPECT_EQ(mgr.state(), ArrayState::kDegraded);
  EXPECT_LT(static_cast<double>(degraded) / kMeasured, kMaxAllocationsPerRequest)
      << degraded << " allocations over " << kMeasured << " degraded requests";

  rig.sim.Run();
  EXPECT_EQ(mgr.outstanding(), 0);
  EXPECT_EQ(rig.metrics.completed(), 2 * (kWarmup + kMeasured));
  EXPECT_EQ(mgr.failed_foreground(), 0);
}

// A rebuild chunk queues its survivor reads and copy-back write through
// each member's BackgroundRunner, whose std::deque may allocate a node per
// chunk; everything else on the rebuild path reuses its buffers.
TEST(ArrayAllocationTest, RebuildChunksAllocateABoundedAmount) {
  AllocRig rig;
  ArrayManager& mgr = *rig.manager;
  rig.Drive(kWarmup);
  ASSERT_EQ(mgr.state(), ArrayState::kOptimal);

  mgr.FailDevice(0, rig.sim.NowMs());
  ASSERT_EQ(mgr.state(), ArrayState::kRebuilding);
  const int64_t chunks_before = mgr.rebuild_chunks_committed();
  int64_t requests = 0;
  int64_t allocations = 0;
  while (mgr.state() == ArrayState::kRebuilding &&
         rig.next < static_cast<int64_t>(rig.stream.size())) {
    allocations += rig.Drive(100);
    requests += 100;
  }
  ASSERT_NE(mgr.state(), ArrayState::kRebuilding) << "rebuild did not finish";
  const int64_t chunks = mgr.rebuild_chunks_committed() - chunks_before;
  ASSERT_EQ(chunks, 16384 / 512);
  // About 1.5 per chunk today; map-based bookkeeping made about 140.
  EXPECT_LE(allocations, 2 * chunks)
      << allocations << " allocations over " << chunks << " chunks and " << requests
      << " requests";
  rig.sim.Run();
  EXPECT_EQ(mgr.outstanding(), 0);
}

// The inline timing model under a host queue: SPTF estimates every pending
// request through RaidArray at each Pop, and each dispatch plans and
// executes one, so planning and execution reuse the array's buffers.
TEST(ArrayAllocationTest, RaidArrayUnderSptfDoesNotAllocate) {
  std::vector<std::unique_ptr<MemsDevice>> devices;
  std::vector<StorageDevice*> members;
  for (int d = 0; d < kActive; ++d) {
    devices.push_back(std::make_unique<MemsDevice>());
    members.push_back(devices.back().get());
  }
  RaidArray raid(RaidConfig{RaidLevel::kRaid5, 64}, members);
  Simulator sim;
  SptfScheduler sched(&raid);
  Driver driver(&sim, &raid, &sched, nullptr);

  RandomWorkloadConfig workload;
  workload.arrival_rate_per_s = 1000.0;  // about 2.8 requests pending at each arrival
  workload.request_count = kWarmup + kMeasured;
  workload.capacity_blocks = raid.CapacityBlocks();
  Rng rng(13);
  const std::vector<Request> stream = GenerateRandomWorkload(workload, rng);
  int64_t queued = 0;  // pending requests summed over the measured arrivals
  int64_t allocations = 0;
  for (int64_t i = 0; i < kWarmup + kMeasured; ++i) {
    const Request& req = stream[static_cast<size_t>(i)];
    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    sim.RunUntil(req.arrival_ms);
    driver.Submit(req);
    if (i >= kWarmup) {
      allocations += g_allocations.load(std::memory_order_relaxed) - before;
      queued += driver.queued();
    }
  }
  EXPECT_LT(static_cast<double>(allocations) / kMeasured, kMaxAllocationsPerRequest)
      << allocations << " allocations over " << kMeasured << " requests";
  // SPTF had a queue to estimate, so the estimate path ran.
  EXPECT_GT(static_cast<double>(queued) / kMeasured, 1.0);
  sim.Run();
  EXPECT_EQ(raid.activity().requests, kWarmup + kMeasured);
}

}  // namespace
}  // namespace mstk
