#include "src/array/array_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/array/array_experiment.h"
#include "src/core/trial_runner.h"
#include "src/mems/mems_device.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace mstk {
namespace {

constexpr int64_t kExtent = 2048;
constexpr int32_t kChunk = 512;

ArrayManagerConfig SmallArrayConfig(RebuildPolicy policy = RebuildPolicy::kIdle) {
  ArrayManagerConfig config;
  config.raid = RaidConfig{RaidLevel::kRaid5, 64};
  config.active_members = 4;
  config.member_extent_blocks = kExtent;
  config.rebuild_policy = policy;
  config.rebuild_chunk_blocks = kChunk;
  config.rebuild_idle_delay_ms = 0.1;
  config.resync_dwell_ms = 2.0;
  return config;
}

Request MakeReq(int64_t lbn, int32_t blocks, IoType type) {
  Request req;
  req.lbn = lbn;
  req.block_count = blocks;
  req.type = type;
  return req;
}

// Device fleet + simulator + manager bundle most tests start from.
struct Rig {
  explicit Rig(const ArrayManagerConfig& config, int device_count) {
    for (int d = 0; d < device_count; ++d) {
      owned.push_back(std::make_unique<MemsDevice>());
      devices.push_back(owned.back().get());
    }
    metrics.set_exclude_background(true);
    manager = std::make_unique<ArrayManager>(&sim, config, devices, MakeFcfsFactory(),
                                             &metrics);
  }

  // Steps virtual time forward until `pred` holds (or the horizon passes).
  template <typename Pred>
  bool RunUntil(Pred pred, TimeMs horizon_ms = 10000.0) {
    TimeMs t = sim.NowMs();
    while (!pred() && t < horizon_ms) {
      t += 0.25;
      sim.RunUntil(t);
    }
    return pred();
  }

  Simulator sim;
  MetricsCollector metrics;
  std::vector<std::unique_ptr<MemsDevice>> owned;
  std::vector<StorageDevice*> devices;
  std::unique_ptr<ArrayManager> manager;
};

TEST(ArrayManagerTest, FullLifecycleWithSparePromotion) {
  Rig rig(SmallArrayConfig(), /*device_count=*/5);
  ArrayManager& mgr = *rig.manager;
  EXPECT_EQ(mgr.state(), ArrayState::kOptimal);
  EXPECT_EQ(mgr.CapacityBlocks(), 3 * kExtent);

  rig.sim.ScheduleAt(1.0, [&mgr, &rig] { mgr.FailDevice(1, rig.sim.NowMs()); });
  rig.sim.Run();

  // The full cycle, in order: optimal -> degraded -> rebuilding -> resync ->
  // optimal again.
  const auto& tr = mgr.transitions();
  ASSERT_EQ(tr.size(), 5u);
  EXPECT_EQ(tr[0].state, ArrayState::kOptimal);
  EXPECT_EQ(tr[1].state, ArrayState::kDegraded);
  EXPECT_EQ(tr[2].state, ArrayState::kRebuilding);
  EXPECT_EQ(tr[3].state, ArrayState::kResync);
  EXPECT_EQ(tr[4].state, ArrayState::kOptimal);
  for (size_t i = 1; i < tr.size(); ++i) {
    EXPECT_GE(tr[i].at_ms, tr[i - 1].at_ms);
    EXPECT_GT(tr[i].version, tr[i - 1].version);
  }

  // The spare (device 4) took over slot 1; every chunk was committed and
  // versioned.
  const ArraySuperblock& sb = mgr.superblock();
  EXPECT_EQ(sb.slot_to_device[1], 4);
  EXPECT_TRUE(sb.spare_pool.empty());
  EXPECT_TRUE(sb.device_failed[1]);
  EXPECT_EQ(mgr.rebuild_chunks_committed(), kExtent / kChunk);
  EXPECT_EQ(sb.rebuild_slot, -1);
  EXPECT_EQ(sb.rebuild_cursor_blocks, 0);

  // Rebuild I/O: per chunk, 3 survivor reads + 1 copy-back write, all
  // counted as background by the member collectors.
  EXPECT_EQ(mgr.DeviceFaults().rebuild_ios, (kExtent / kChunk) * 4);
  EXPECT_EQ(rig.devices[4]->activity().blocks_written, kExtent);
}

TEST(ArrayManagerTest, GreedyRebuildCompetesWithForeground) {
  Rig rig(SmallArrayConfig(RebuildPolicy::kGreedy), /*device_count=*/5);
  ArrayManager& mgr = *rig.manager;

  // Steady foreground read stream across the whole run.
  std::vector<Request> reqs;
  for (int i = 0; i < 200; ++i) {
    Request req = MakeReq((i * 97) % (mgr.CapacityBlocks() - 8), 8,
                          i % 3 == 0 ? IoType::kWrite : IoType::kRead);
    req.id = i;
    req.arrival_ms = 0.05 * i;
    reqs.push_back(req);
  }
  for (const Request& req : reqs) {
    const Request* arrival = &req;
    rig.sim.ScheduleAt(req.arrival_ms, [&mgr, arrival] { mgr.Submit(*arrival); });
  }
  rig.sim.ScheduleAt(1.0, [&mgr, &rig] { mgr.FailDevice(0, rig.sim.NowMs()); });
  rig.sim.Run();

  EXPECT_EQ(mgr.state(), ArrayState::kOptimal);
  EXPECT_EQ(mgr.rebuild_chunks_committed(), kExtent / kChunk);
  EXPECT_EQ(rig.metrics.completed(), 200);
  EXPECT_EQ(mgr.outstanding(), 0);
  // Rebuild traffic is visible, and separated from the foreground summary.
  EXPECT_GT(mgr.DeviceFaults().rebuild_ios, 0);
  EXPECT_GT(mgr.DeviceFaults().rebuild_ms, 0.0);
}

TEST(ArrayManagerTest, SecondFailureIsUnrecoverableNotACrash) {
  ArrayManagerConfig config = SmallArrayConfig();
  Rig rig(config, /*device_count=*/4);  // no spares
  ArrayManager& mgr = *rig.manager;

  mgr.FailDevice(0, 1.0);
  EXPECT_EQ(mgr.state(), ArrayState::kDegraded);  // no spare: stays degraded
  mgr.FailDevice(2, 2.0);
  EXPECT_EQ(mgr.state(), ArrayState::kFailed);

  // Submissions against the dead array complete as failures instead of
  // crashing inside planning.
  mgr.Submit(MakeReq(0, 8, IoType::kRead));
  mgr.Submit(MakeReq(64, 8, IoType::kWrite));
  rig.sim.Run();
  EXPECT_EQ(mgr.failed_foreground(), 2);
  EXPECT_EQ(rig.metrics.fault().failed_requests, 2);
  EXPECT_EQ(mgr.outstanding(), 0);
}

TEST(ArrayManagerTest, RebuildTargetFailureFallsBackToNextSpare) {
  Rig rig(SmallArrayConfig(), /*device_count=*/6);  // 4 active + 2 spares
  ArrayManager& mgr = *rig.manager;

  mgr.FailDevice(0, 0.0);
  ASSERT_EQ(mgr.state(), ArrayState::kRebuilding);
  EXPECT_EQ(mgr.superblock().rebuild_device, 4);

  // The first spare dies mid-copy; the manager falls back to the second and
  // restarts the copy from zero.
  ASSERT_TRUE(rig.RunUntil([&mgr] { return mgr.rebuild_chunks_committed() >= 1; }));
  mgr.FailDevice(4, rig.sim.NowMs());
  EXPECT_EQ(mgr.state(), ArrayState::kRebuilding);
  EXPECT_EQ(mgr.superblock().rebuild_device, 5);
  EXPECT_EQ(mgr.superblock().rebuild_cursor_blocks, 0);

  rig.sim.Run();
  EXPECT_EQ(mgr.state(), ArrayState::kOptimal);
  EXPECT_EQ(mgr.superblock().slot_to_device[0], 5);
}

TEST(ArrayManagerTest, WriteBelowCursorMirrorsToRebuildTarget) {
  Rig rig(SmallArrayConfig(RebuildPolicy::kGreedy), /*device_count=*/5);
  ArrayManager& mgr = *rig.manager;

  // Slot 1 fails; wait until at least one chunk is committed so the cursor
  // has passed member block 0.
  mgr.FailDevice(1, 0.0);
  ASSERT_TRUE(rig.RunUntil([&mgr] { return mgr.rebuild_chunks_committed() >= 1; }));
  ASSERT_GE(mgr.superblock().rebuild_cursor_blocks, kChunk);

  // Array blocks 64..127 are stripe unit u1 -> slot 1, member blocks 0..63
  // (row 0) — below the cursor, so the write must also land on the rebuild
  // target to keep the already-copied data fresh.
  ASSERT_EQ(mgr.planner().MapRaid5Data(64).member, 1);
  ASSERT_EQ(mgr.planner().MapRaid5Data(64).lbn, 0);
  mgr.Submit(MakeReq(64, 16, IoType::kWrite));
  rig.sim.Run();

  EXPECT_EQ(mgr.state(), ArrayState::kOptimal);
  // Copy-back wrote the whole extent; the mirror added the 16-block write.
  EXPECT_EQ(rig.devices[4]->activity().blocks_written, kExtent + 16);
}

TEST(ArrayManagerTest, RestoredSuperblockResumesRebuildFromCursor) {
  ArrayManagerConfig config = SmallArrayConfig();
  Rig rig(config, /*device_count=*/5);
  rig.manager->FailDevice(0, 0.0);
  ASSERT_TRUE(
      rig.RunUntil([&rig] { return rig.manager->rebuild_chunks_committed() >= 2; }));
  const ArraySuperblock saved = rig.manager->superblock();
  ASSERT_EQ(saved.state, ArrayState::kRebuilding);
  const int64_t cursor = saved.rebuild_cursor_blocks;
  ASSERT_GE(cursor, 2 * kChunk);

  // "Reboot": a new manager over fresh devices adopts the saved superblock
  // and resumes the copy at the cursor instead of from zero.
  Rig rig2(config, /*device_count=*/5);
  MetricsCollector metrics2;
  ArrayManager restored(&rig2.sim, config, rig2.devices, MakeFcfsFactory(), &metrics2,
                        saved);
  EXPECT_EQ(restored.state(), ArrayState::kRebuilding);
  EXPECT_EQ(restored.superblock().rebuild_cursor_blocks, cursor);
  EXPECT_EQ(restored.superblock().version, saved.version);

  rig2.sim.Run();
  EXPECT_EQ(restored.state(), ArrayState::kOptimal);
  EXPECT_EQ(restored.superblock().slot_to_device[0], 4);
  EXPECT_EQ(restored.rebuild_chunks_committed(), (kExtent - cursor) / kChunk);
  // Only the remaining extent was copied onto the new rig's spare.
  EXPECT_EQ(rig2.devices[4]->activity().blocks_written, kExtent - cursor);
}

TEST(ArrayManagerTest, CorruptSuperblockDiesOnRestore) {
  // A valid mid-rebuild superblock: 4 slots plus 1 spare, slot 0 failed and
  // being copied onto device 4.
  ArrayManagerConfig config = SmallArrayConfig();
  Rig rig(config, /*device_count=*/5);
  rig.manager->FailDevice(0, 0.0);
  ASSERT_TRUE(
      rig.RunUntil([&rig] { return rig.manager->rebuild_chunks_committed() >= 1; }));
  const ArraySuperblock saved = rig.manager->superblock();
  ASSERT_EQ(saved.state, ArrayState::kRebuilding);
  ASSERT_EQ(saved.slot_to_device, std::vector<int>({0, 1, 2, 3}));
  ASSERT_EQ(saved.rebuild_device, 4);

  // Each case corrupts one field and names the check that must catch it.
  struct Case {
    void (*corrupt)(ArraySuperblock*);
    const char* want_death;
  };
  const Case kCases[] = {
      {[](ArraySuperblock* b) { b->version = 0; }, "never written"},
      {[](ArraySuperblock* b) { b->slot_to_device.pop_back(); }, "wrong slot count"},
      {[](ArraySuperblock* b) { b->slot_failed.resize(1); }, "wrong slot_failed size"},
      {[](ArraySuperblock* b) { b->device_failed.pop_back(); }, "wrong device count"},
      {[](ArraySuperblock* b) { b->slot_to_device[3] = 9; }, "device out of range"},
      {[](ArraySuperblock* b) { b->slot_to_device[1] = -1; }, "device out of range"},
      {[](ArraySuperblock* b) { b->slot_to_device[3] = 1; }, "two roles"},
      {[](ArraySuperblock* b) { b->spare_pool = {5}; }, "device out of range"},
      {[](ArraySuperblock* b) { b->spare_pool = {2}; }, "two roles"},
      {[](ArraySuperblock* b) { b->rebuild_slot = 7; }, "rebuild slot is out of range"},
      {[](ArraySuperblock* b) { b->rebuild_slot = 2; }, "rebuilds a healthy slot"},
      {[](ArraySuperblock* b) { b->rebuild_device = 5; }, "device out of range"},
      {[](ArraySuperblock* b) { b->rebuild_device = 3; }, "two roles"},
      {[](ArraySuperblock* b) { b->rebuild_cursor_blocks = kExtent; }, "rebuild cursor"},
      {[](ArraySuperblock* b) { b->rebuild_cursor_blocks = -1; }, "rebuild cursor"},
      {[](ArraySuperblock* b) { b->state = ArrayState::kDegraded; }, "outside kRebuilding"},
      {[](ArraySuperblock* b) { b->state = static_cast<ArrayState>(7); }, "outside ArrayState"},
      {[](ArraySuperblock* b) { b->state = static_cast<ArrayState>(-1); }, "outside ArrayState"},
      {[](ArraySuperblock* b) { b->slot_failed[2] = true; }, "more failed slots"},
  };
  for (size_t i = 0; i < std::size(kCases); ++i) {
    ArraySuperblock bad = saved;
    kCases[i].corrupt(&bad);
    Rig rig2(config, /*device_count=*/5);
    MetricsCollector metrics2;
    EXPECT_DEATH(ArrayManager(&rig2.sim, config, rig2.devices, MakeFcfsFactory(), &metrics2, bad),
                 kCases[i].want_death)
        << "case " << i;
  }
}

// A valid mid-rebuild superblock over `device_count` devices: 4 slots,
// slot 0 failed and being copied onto device 4, the rest pooled spares.
ArraySuperblock MidRebuildSuperblock(const ArrayManagerConfig& config, int device_count) {
  Rig rig(config, device_count);
  rig.manager->FailDevice(0, 0.0);
  EXPECT_TRUE(
      rig.RunUntil([&rig] { return rig.manager->rebuild_chunks_committed() >= 1; }));
  return rig.manager->superblock();
}

// Applies one random field mutation to `sb`: a resized vector, a device or
// slot id that may be out of range or taken, a flipped flag, a shifted
// cursor, a state that may lie outside ArrayState, or a version.
void MutateSuperblock(ArraySuperblock* sb, Rng* rng, int device_count) {
  const auto any_id = [&] { return static_cast<int>(rng->UniformInt(device_count + 4)) - 2; };
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(n)));
  };
  // Grows `v` by `value` or shrinks it by one.
  const auto resize = [&](auto* v, auto value) {
    if (rng->Bernoulli(0.5)) {
      v->push_back(value);
    } else if (!v->empty()) {
      v->pop_back();
    }
  };
  switch (rng->UniformInt(11)) {
    case 0:
      resize(&sb->slot_to_device, any_id());
      break;
    case 1:
      resize(&sb->slot_failed, rng->Bernoulli(0.5));
      break;
    case 2:
      resize(&sb->device_failed, rng->Bernoulli(0.5));
      break;
    case 3:
      if (!sb->slot_to_device.empty()) {
        sb->slot_to_device[pick(sb->slot_to_device.size())] = any_id();
      }
      break;
    case 4:
      if (sb->spare_pool.empty() || rng->Bernoulli(0.3)) {
        sb->spare_pool.push_back(any_id());
      } else if (rng->Bernoulli(0.5)) {
        const auto i = static_cast<int64_t>(pick(sb->spare_pool.size()));
        sb->spare_pool.erase(sb->spare_pool.begin() + i);
      } else {
        sb->spare_pool[pick(sb->spare_pool.size())] = any_id();
      }
      break;
    case 5:
      if (rng->Bernoulli(0.5)) {
        sb->rebuild_device = any_id();
      } else {
        sb->rebuild_slot = static_cast<int>(rng->UniformInt(8)) - 2;
      }
      break;
    case 6:
      if (!sb->slot_failed.empty()) {
        const size_t i = pick(sb->slot_failed.size());
        sb->slot_failed[i] = !sb->slot_failed[i];
      }
      break;
    case 7:
      if (!sb->device_failed.empty()) {
        const size_t i = pick(sb->device_failed.size());
        sb->device_failed[i] = !sb->device_failed[i];
      }
      break;
    case 8: {
      const int64_t shifts[] = {1, -1, kChunk, -kChunk, kExtent, -kExtent};
      sb->rebuild_cursor_blocks += shifts[pick(std::size(shifts))];
      break;
    }
    case 9:
      sb->state = static_cast<ArrayState>(rng->UniformInt(8) - 1);
      break;
    default:
      sb->version = rng->UniformInt(4) - 1;
      break;
  }
}

TEST(ArrayManagerTest, PerturbedSuperblocksRestoreOrAreRejected) {
  // 5,000 mutants of a valid mid-rebuild superblock, one to four field
  // mutations each. RestoreError must reject a mutant or let it restore:
  // an accepted one restores, serves a short foreground stream and runs
  // its rebuild, resync and dwell to completion with nothing outstanding.
  // A crash here is a restore path RestoreError should have rejected.
  const ArrayManagerConfig config = SmallArrayConfig();
  constexpr int kDevices = 6;
  const ArraySuperblock valid = MidRebuildSuperblock(config, kDevices);
  ASSERT_EQ(valid.state, ArrayState::kRebuilding);
  ASSERT_EQ(valid.spare_pool, std::vector<int>({5}));
  Rng rng(20261020);
  int64_t accepted = 0;
  for (int mutant = 0; mutant < 5000; ++mutant) {
    ArraySuperblock sb = valid;
    for (int64_t n = 1 + rng.UniformInt(4); n > 0; --n) {
      MutateSuperblock(&sb, &rng, kDevices);
    }
    if (RestoreError(sb, config, kDevices, kExtent) != nullptr) {
      continue;
    }
    ++accepted;
    Simulator sim;
    MetricsCollector metrics;
    std::vector<std::unique_ptr<MemsDevice>> owned;
    std::vector<StorageDevice*> devices;
    for (int d = 0; d < kDevices; ++d) {
      owned.push_back(std::make_unique<MemsDevice>());
      devices.push_back(owned.back().get());
    }
    ArrayManager manager(&sim, config, devices, MakeFcfsFactory(), &metrics, sb);
    ASSERT_EQ(manager.member_extent_blocks(), kExtent);
    std::vector<Request> stream;
    for (int i = 0; i < 4; ++i) {
      const IoType type = i % 2 == 0 ? IoType::kRead : IoType::kWrite;
      stream.push_back(MakeReq(rng.UniformInt(manager.CapacityBlocks() - 64), 64, type));
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      const Request* req = &stream[i];
      sim.ScheduleAt(0.5 * static_cast<double>(i), [&manager, req] { manager.Submit(*req); });
    }
    sim.Run();
    ASSERT_EQ(manager.outstanding(), 0) << "mutant " << mutant;
    ASSERT_NE(manager.state(), ArrayState::kRebuilding) << "mutant " << mutant;
    ASSERT_NE(manager.state(), ArrayState::kResync) << "mutant " << mutant;
  }
  // Enough mutants pass for the restore half to mean something.
  EXPECT_GE(accepted, 400);
  ::testing::Test::RecordProperty("accepted", std::to_string(accepted));
}

TEST(ArrayManagerTest, SecondFailedSlotIsRejectedOnRestore) {
  // Found by PerturbedSuperblocksRestoreOrAreRejected: a RAID-5 superblock
  // with two failed slots in any state but kFailed passed the restore
  // check, then died mid-run ("rebuilding with a second failed slot" when
  // the rebuild resumed or started, "RAID-5 cannot survive two failures" on
  // a read). kFailed itself records exactly that and restores.
  const ArrayManagerConfig config = SmallArrayConfig();
  constexpr int kDevices = 6;
  const ArraySuperblock valid = MidRebuildSuperblock(config, kDevices);
  EXPECT_EQ(RestoreError(valid, config, kDevices, kExtent), nullptr);
  for (const ArrayState state : {ArrayState::kOptimal, ArrayState::kDegraded,
                                 ArrayState::kRebuilding, ArrayState::kResync,
                                 ArrayState::kFailed}) {
    SCOPED_TRACE(ArrayStateName(state));
    ArraySuperblock sb = valid;
    sb.state = state;
    if (state != ArrayState::kRebuilding) {
      sb.spare_pool.insert(sb.spare_pool.begin(), sb.rebuild_device);
      sb.rebuild_slot = -1;
      sb.rebuild_device = -1;
    }
    ASSERT_EQ(RestoreError(sb, config, kDevices, kExtent), nullptr);
    sb.slot_failed[3] = true;
    const char* reason = RestoreError(sb, config, kDevices, kExtent);
    if (state == ArrayState::kFailed) {
      EXPECT_EQ(reason, nullptr);
      continue;
    }
    ASSERT_NE(reason, nullptr);
    EXPECT_NE(std::string(reason).find("more failed slots than the RAID level survives"),
              std::string::npos);
  }
}

TEST(ArrayManagerTest, InPlaceRestartIgnoresOrphansAndFinishesRebuild) {
  Rig rig(SmallArrayConfig(RebuildPolicy::kGreedy), /*device_count=*/5);
  ArrayManager& mgr = *rig.manager;

  mgr.FailDevice(2, 0.0);
  // Stop mid-chunk (committed >= 1, reads of the next chunk in flight), with
  // a foreground request also in flight.
  ASSERT_TRUE(rig.RunUntil([&mgr] { return mgr.rebuild_chunks_committed() >= 1; }));
  mgr.Submit(MakeReq(0, 32, IoType::kRead));
  const int64_t committed = mgr.rebuild_chunks_committed();

  mgr.Restart();
  EXPECT_EQ(mgr.outstanding(), 0);  // in-flight foreground forgotten
  rig.sim.Run();                    // orphaned completions must be ignored

  EXPECT_EQ(mgr.state(), ArrayState::kOptimal);
  EXPECT_EQ(mgr.superblock().slot_to_device[2], 4);
  // Every block from the pre-restart cursor on was (re-)copied exactly once.
  EXPECT_EQ(mgr.rebuild_chunks_committed(),
            committed + (kExtent - committed * kChunk) / kChunk);
}

// Restart() frees every in-flight slot. Requests submitted right after it
// take those slots while the orphaned member ops still sit ahead of theirs
// in the FCFS member queues. Each new request must complete exactly once,
// when its own member op does, never on an orphan's completion.
TEST(ArrayManagerTest, RestartWhileFreedSlotsAreReused) {
  constexpr int kDevices = 5;
  Rig rig(SmallArrayConfig(), kDevices);
  ArrayManager& mgr = *rig.manager;
  std::vector<std::pair<int64_t, TimeMs>> member_done;  // (sub id, completion)
  for (int d = 0; d < kDevices; ++d) {
    mgr.driver(d)->AddCompletionListener([&member_done](const Request& sub, TimeMs now) {
      if (!sub.background) {
        member_done.emplace_back(sub.id, now);
      }
    });
  }
  // One read inside each of the first six stripe units: one member op each,
  // spread over all four active members.
  constexpr int kRequests = 6;
  for (int u = 0; u < kRequests; ++u) {
    mgr.Submit(MakeReq(u * 64, 8, IoType::kRead));
  }
  mgr.Restart();
  ASSERT_EQ(mgr.outstanding(), 0);
  for (int u = 0; u < kRequests; ++u) {
    mgr.Submit(MakeReq(u * 64 + 16, 8, IoType::kRead));
  }
  EXPECT_EQ(mgr.outstanding(), kRequests);
  rig.sim.Run();

  EXPECT_EQ(mgr.outstanding(), 0);
  EXPECT_EQ(rig.metrics.completed(), kRequests);
  EXPECT_EQ(rig.metrics.fault().failed_requests, 0);
  EXPECT_EQ(mgr.failed_foreground(), 0);
  // Sub ids are issued in order, so the new requests' member ops are the
  // last kRequests to be issued. Every request arrived at 0, so the array's
  // response extremes are their earliest and latest completions.
  ASSERT_EQ(member_done.size(), 2u * kRequests);
  std::sort(member_done.begin(), member_done.end());
  TimeMs first = member_done[kRequests].second;
  TimeMs last = first;
  for (size_t i = kRequests; i < member_done.size(); ++i) {
    first = std::min(first, member_done[i].second);
    last = std::max(last, member_done[i].second);
  }
  EXPECT_EQ(rig.metrics.response_time().min(), first);
  EXPECT_EQ(rig.metrics.response_time().max(), last);
}

TEST(ArrayManagerTest, TrialHarnessReportsLifecycleAndIsJobsInvariant) {
  ArrayRunConfig config;
  config.manager = SmallArrayConfig(RebuildPolicy::kGreedy);
  config.spares = 1;
  config.use_sptf = true;
  config.workload.request_count = 150;
  config.workload.arrival_rate_per_s = 2000.0;
  config.fail_device = 1;
  config.fail_at_ms = 5.0;

  TrialRunner::Options opts;
  opts.trials = 4;
  opts.base_seed = 42;

  opts.jobs = 1;
  const AggregateResult serial =
      TrialRunner::Run(opts, [&config](uint64_t seed, int64_t) {
        return RunArrayRebuildTrial(config, seed);
      });
  opts.jobs = 4;
  const AggregateResult parallel =
      TrialRunner::Run(opts, [&config](uint64_t seed, int64_t) {
        return RunArrayRebuildTrial(config, seed);
      });

  JsonWriter js, jp;
  serial.AppendJson(js);
  parallel.AppendJson(jp);
  EXPECT_EQ(js.str(), jp.str());

  // The deterministic failure produced an observable lifecycle in the
  // metrics: degraded -> rebuilding -> resync -> optimal, with rebuild I/O
  // accounted separately from the foreground summary.
  EXPECT_GE(serial.Get("array_degraded_at_ms").min, 5.0);
  EXPECT_GE(serial.Get("array_rebuilding_at_ms").min, 5.0);
  EXPECT_GE(serial.Get("array_resync_at_ms").min, 5.0);
  EXPECT_GT(serial.Get("array_optimal_again_ms").min,
            serial.Get("array_resync_at_ms").min);
  EXPECT_GT(serial.Get("rebuild_ios").min, 0.0);
  EXPECT_EQ(serial.Get("completed").min, 150.0);
  EXPECT_GT(serial.Get("array_superblock_version").min, 4.0);
}

TEST(ArrayManagerTest, InjectedPermanentFaultsFailMemberThroughDegradedSink) {
  ArrayRunConfig config;
  config.manager = SmallArrayConfig(RebuildPolicy::kGreedy);
  config.spares = 1;
  config.workload.request_count = 300;
  config.workload.arrival_rate_per_s = 3000.0;
  config.fail_at_ms = -1.0;  // no scheduled failure: faults must do it
  config.permanent_rate = 0.02;
  config.member_spares = 0;  // first permanent fault degrades the member

  const TrialMetrics m = RunArrayRebuildTrial(config, /*seed=*/7);
  auto get = [&m](const char* name) {
    for (const auto& [k, v] : m) {
      if (k == name) {
        return v;
      }
    }
    ADD_FAILURE() << "missing metric " << name;
    return -2.0;
  };
  EXPECT_GT(get("fault_permanent"), 0.0);
  // The degraded sink failed the member out of the array and a spare
  // promotion cycle began.
  EXPECT_GE(get("array_degraded_at_ms"), 0.0);
  EXPECT_GE(get("array_rebuilding_at_ms"), 0.0);
}

}  // namespace
}  // namespace mstk
