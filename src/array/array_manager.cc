#include "src/array/array_manager.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/check.h"

namespace mstk {
const char* RestoreError(const ArraySuperblock& sb, const ArrayManagerConfig& config,
                         int device_count, int64_t member_extent) {
  const int active_members = config.active_members;
  const size_t slots = static_cast<size_t>(active_members);
  if (sb.version < 1) return "restored superblock was never written";
  if (sb.slot_to_device.size() != slots) return "restored superblock has the wrong slot count";
  if (sb.slot_failed.size() != slots) return "restored superblock has the wrong slot_failed size";
  if (sb.device_failed.size() != static_cast<size_t>(device_count)) {
    return "restored superblock has the wrong device count";
  }
  // A device has at most one role: active slot, pooled spare or rebuild
  // target.
  std::vector<bool> taken(static_cast<size_t>(device_count), false);
  const auto take = [&](int d) -> const char* {
    if (d < 0 || d >= device_count) return "restored superblock names a device out of range";
    if (taken[static_cast<size_t>(d)]) return "restored superblock gives a device two roles";
    taken[static_cast<size_t>(d)] = true;
    return nullptr;
  };
  for (const int d : sb.slot_to_device) {
    if (const char* reason = take(d)) return reason;
  }
  for (const int d : sb.spare_pool) {
    if (const char* reason = take(d)) return reason;
  }
  switch (sb.state) {
    case ArrayState::kOptimal:
    case ArrayState::kDegraded:
    case ArrayState::kRebuilding:
    case ArrayState::kResync:
    case ArrayState::kFailed:
      break;
    default:
      return "restored superblock has a state outside ArrayState";
  }
  if (sb.state != ArrayState::kFailed &&
      RaidPlanner(config.raid, active_members).HealthFor(sb.slot_failed) == ArrayHealth::kFailed) {
    return "restored superblock has more failed slots than the RAID level survives";
  }
  if (sb.state != ArrayState::kRebuilding) {
    if (sb.rebuild_slot != -1 || sb.rebuild_device != -1) {
      return "restored superblock has a rebuild target outside kRebuilding";
    }
    return nullptr;
  }
  if (const char* reason = take(sb.rebuild_device)) return reason;
  if (sb.rebuild_slot < 0 || sb.rebuild_slot >= active_members) {
    return "restored superblock's rebuild slot is out of range";
  }
  if (!sb.slot_failed[static_cast<size_t>(sb.rebuild_slot)]) {
    return "restored superblock rebuilds a healthy slot";
  }
  // A cursor at the extent never persists: the last chunk's commit ends the
  // rebuild.
  if (sb.rebuild_cursor_blocks < 0 || sb.rebuild_cursor_blocks >= member_extent) {
    return "restored superblock's rebuild cursor is out of range";
  }
  return nullptr;
}

const char* ArrayStateName(ArrayState state) {
  switch (state) {
    case ArrayState::kOptimal:
      return "optimal";
    case ArrayState::kDegraded:
      return "degraded";
    case ArrayState::kRebuilding:
      return "rebuilding";
    case ArrayState::kResync:
      return "resync";
    case ArrayState::kFailed:
      return "failed";
  }
  return "?";
}

const char* RebuildPolicyName(RebuildPolicy policy) {
  switch (policy) {
    case RebuildPolicy::kIdle:
      return "idle";
    case RebuildPolicy::kGreedy:
      return "greedy";
  }
  return "?";
}

SchedulerFactory MakeFcfsFactory() {
  return [](const StorageDevice*) { return std::make_unique<FcfsScheduler>(); };
}

SchedulerFactory MakeSptfFactory() {
  return [](const StorageDevice* device) { return std::make_unique<SptfScheduler>(device); };
}

ArrayManager::ArrayManager(Simulator* sim, const ArrayManagerConfig& config,
                           std::vector<StorageDevice*> devices,
                           const SchedulerFactory& scheduler_factory, MetricsCollector* metrics)
    : sim_(sim),
      config_(config),
      metrics_(metrics),
      devices_(std::move(devices)),
      planner_(config.raid, config.active_members) {
  Init(scheduler_factory);
  super_.slot_to_device.resize(static_cast<size_t>(config_.active_members));
  for (int s = 0; s < config_.active_members; ++s) {
    super_.slot_to_device[static_cast<size_t>(s)] = s;
  }
  super_.slot_failed.assign(static_cast<size_t>(config_.active_members), false);
  super_.device_failed.assign(devices_.size(), false);
  for (int d = config_.active_members; d < device_count(); ++d) {
    super_.spare_pool.push_back(d);
  }
  super_.Bump(sim_->NowMs());
  transitions_.push_back(Transition{super_.state, sim_->NowMs(), super_.version});
}

ArrayManager::ArrayManager(Simulator* sim, const ArrayManagerConfig& config,
                           std::vector<StorageDevice*> devices,
                           const SchedulerFactory& scheduler_factory, MetricsCollector* metrics,
                           const ArraySuperblock& restored)
    : sim_(sim),
      config_(config),
      metrics_(metrics),
      devices_(std::move(devices)),
      planner_(config.raid, config.active_members) {
  Init(scheduler_factory);
  const char* reason = RestoreError(restored, config_, device_count(), member_extent_);
  MSTK_CHECK(reason == nullptr, reason);
  super_ = restored;
  transitions_.push_back(Transition{super_.state, sim_->NowMs(), super_.version});
  ResumeFromSuperblock();
}

void ArrayManager::Init(const SchedulerFactory& scheduler_factory) {
  MSTK_CHECK(config_.active_members >= 1, "array needs at least one active member");
  MSTK_CHECK(static_cast<int>(devices_.size()) >= config_.active_members,
             "fewer devices than active slots");
  MSTK_CHECK(config_.rebuild_chunk_blocks > 0, "bad rebuild chunk");

  int64_t common = devices_[0]->CapacityBlocks();
  for (StorageDevice* d : devices_) {
    common = std::min(common, d->CapacityBlocks());
  }
  member_extent_ = config_.member_extent_blocks > 0
                       ? std::min(config_.member_extent_blocks, common)
                       : common;
  member_extent_ -= member_extent_ % config_.raid.stripe_unit_blocks;
  MSTK_CHECK(member_extent_ > 0, "member extent smaller than one stripe unit");
  capacity_blocks_ = planner_.CapacityBlocks(member_extent_);

  per_device_.resize(devices_.size());
  for (int d = 0; d < device_count(); ++d) {
    PerDevice& pd = per_device_[static_cast<size_t>(d)];
    pd.scheduler = scheduler_factory(devices_[static_cast<size_t>(d)]);
    // Nothing reads a member's latencies, only its fault counters, so the
    // member drivers run without a collector.
    pd.driver = std::make_unique<Driver>(sim_, devices_[static_cast<size_t>(d)],
                                         pd.scheduler.get(), /*metrics=*/nullptr);
    pd.background = std::make_unique<BackgroundRunner>(
        sim_, pd.driver.get(), std::vector<Request>{}, config_.rebuild_idle_delay_ms,
        kIdleRebuildIdBase + static_cast<int64_t>(d) * kIdleRebuildIdStride);
    pd.driver->AddCompletionListener(
        [this](const Request& sub, TimeMs now) { OnMemberCompletion(sub, now); });
  }
}

void ArrayManager::ResumeFromSuperblock() {
  switch (super_.state) {
    case ArrayState::kRebuilding:
      StartNextChunk(sim_->NowMs());
      break;
    case ArrayState::kDegraded:
      MaybeStartRebuild(sim_->NowMs());
      break;
    case ArrayState::kResync:
      ScheduleResyncDwell();
      break;
    case ArrayState::kOptimal:
    case ArrayState::kFailed:
      break;
  }
}

void ArrayManager::SetState(ArrayState next, TimeMs now_ms) {
  if (super_.state == next) {
    return;
  }
  super_.state = next;
  super_.Bump(now_ms);
  transitions_.push_back(Transition{next, now_ms, super_.version});
}

FaultCounters ArrayManager::DeviceFaults() const {
  FaultCounters total;
  for (const PerDevice& pd : per_device_) {
    const FaultCounters& f = pd.driver->fault();
    total.transient_errors += f.transient_errors;
    total.timeouts += f.timeouts;
    total.retries += f.retries;
    total.permanent_faults += f.permanent_faults;
    total.remaps += f.remaps;
    total.failed_requests += f.failed_requests;
    total.rebuild_ios += f.rebuild_ios;
    total.rebuild_ms += f.rebuild_ms;
    total.degraded_ms += f.degraded_ms;
  }
  return total;
}

void ArrayManager::AttachFaultModels(const std::vector<FaultModel*>& models,
                                     const RecoveryPolicy& policy) {
  MSTK_CHECK(models.size() == devices_.size(), "one fault model slot per device");
  for (int d = 0; d < device_count(); ++d) {
    if (models[static_cast<size_t>(d)] == nullptr) {
      continue;
    }
    Driver* driver = per_device_[static_cast<size_t>(d)].driver.get();
    driver->EnableRecovery(models[static_cast<size_t>(d)], policy);
    driver->set_degraded_sink([this, d](TimeMs now) { FailDevice(d, now); });
  }
}

void ArrayManager::RouteRequest(const Request& req) {
  const TimeMs now = sim_->NowMs();
  if (req.is_read()) {
    const RaidPlanner::MirrorCost mirror_cost = [this](int slot, const Request& probe,
                                                       TimeMs at) {
      const int dev = super_.slot_to_device[static_cast<size_t>(slot)];
      return devices_[static_cast<size_t>(dev)]->EstimatePositioningMs(probe, at);
    };
    planner_.PlanRead(req, super_.slot_failed, now, mirror_cost, &plan_);
  } else {
    planner_.PlanWrite(req, super_.slot_failed, &plan_);
  }

  routed_.clear();
  for (const RaidPlanner::MemberOp& op : plan_) {
    routed_.push_back(RoutedOp{super_.slot_to_device[static_cast<size_t>(op.member)], op});
  }

  // During a rebuild, writes that land on the failed slot below the rebuild
  // cursor also go to the rebuild target: those member blocks were already
  // copied, and the copy must not go stale before promotion. Blocks at or
  // above the cursor are picked up when the rebuild gets there.
  if (!req.is_read() && super_.state == ArrayState::kRebuilding) {
    const int s = super_.rebuild_slot;
    // Mirrors the member-space span [lbn, lbn + blocks) of slot s.
    const auto mirror = [this, s](int64_t lbn, int32_t blocks) {
      if (lbn >= super_.rebuild_cursor_blocks) {
        return;
      }
      const int32_t clipped = static_cast<int32_t>(
          std::min<int64_t>(blocks, super_.rebuild_cursor_blocks - lbn));
      routed_.push_back(RoutedOp{
          super_.rebuild_device,
          RaidPlanner::MemberOp{s, lbn, clipped, IoType::kWrite, /*row=*/-1, /*phase2=*/false}});
    };
    const int64_t unit = config_.raid.stripe_unit_blocks;
    if (config_.raid.level == RaidLevel::kRaid1) {
      mirror(req.lbn, req.block_count);
    } else if (config_.raid.level == RaidLevel::kRaid5) {
      int64_t cursor = req.lbn;
      int64_t remaining = req.block_count;
      while (remaining > 0) {
        const int64_t in_unit = cursor % unit;
        const int32_t run = static_cast<int32_t>(std::min<int64_t>(remaining, unit - in_unit));
        const MemberBlock mb = planner_.MapRaid5Data(cursor);
        if (mb.member == s) {
          mirror(mb.lbn, run);
        }
        cursor += run;
        remaining -= run;
      }
    }
  }
}

void ArrayManager::IssueSubOp(int slot, const RoutedOp& routed) {
  Request sub;
  sub.id = next_sub_id_++;
  sub.type = routed.op.type;
  sub.lbn = routed.op.lbn;
  sub.block_count = routed.op.blocks;
  sub.arrival_ms = sim_->NowMs();
  if (sub.id - oldest_sub_id_ >= static_cast<int64_t>(sub_refs_.size())) {
    // The live window would wrap the ring: double it, re-seating each live
    // ref at its id modulo the new size.
    std::vector<SubRef> grown(std::max<size_t>(16, 2 * sub_refs_.size()));
    for (int64_t id = oldest_sub_id_; id < sub.id; ++id) {
      grown[static_cast<size_t>(id) & (grown.size() - 1)] =
          sub_refs_[static_cast<size_t>(id) & (sub_refs_.size() - 1)];
    }
    sub_refs_.swap(grown);
  }
  sub_refs_[static_cast<size_t>(sub.id) & (sub_refs_.size() - 1)] =
      SubRef{slot, routed.op.phase2, routed.op.row};
  pending_[static_cast<size_t>(slot)].outstanding++;
  per_device_[static_cast<size_t>(routed.device)].driver->Submit(sub);
}

bool ArrayManager::TakeSubRef(int64_t id, SubRef* ref) {
  if (id < oldest_sub_id_ || id >= next_sub_id_) {
    return false;
  }
  const size_t mask = sub_refs_.size() - 1;
  SubRef& entry = sub_refs_[static_cast<size_t>(id) & mask];
  if (entry.slot < 0) {
    return false;
  }
  *ref = entry;
  entry.slot = -1;
  while (oldest_sub_id_ < next_sub_id_ &&
         sub_refs_[static_cast<size_t>(oldest_sub_id_) & mask].slot < 0) {
    ++oldest_sub_id_;
  }
  return true;
}

void ArrayManager::Submit(const Request& req) {
  MSTK_CHECK(req.lbn >= 0 && req.last_lbn() < capacity_blocks_, "request outside array capacity");
  const TimeMs now = sim_->NowMs();
  if (super_.state == ArrayState::kFailed) {
    // Nothing to issue: the volume is gone. Count the failure; don't let it
    // pollute the latency summaries.
    failed_foreground_++;
    metrics_->fault().failed_requests++;
    return;
  }

  RouteRequest(req);
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<int>(pending_.size()));
    pending_.emplace_back();
  }
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  PendingIo& io = pending_[static_cast<size_t>(slot)];
  io.parent = req;
  io.submit_ms = now;
  metrics_->RecordDispatch(req, now, outstanding());

  // Row barriers: each phase-1 op tagged with a row holds back that row's
  // phase-2 ops until it completes.
  for (const RoutedOp& r : routed_) {
    if (r.op.phase2 || r.op.row < 0) {
      continue;
    }
    bool found = false;
    for (RowBarrier& rb : io.rows) {
      if (rb.row == r.op.row) {
        rb.reads_left++;
        found = true;
        break;
      }
    }
    if (!found) {
      io.rows.push_back(RowBarrier{r.op.row, 1});
    }
  }

  for (const RoutedOp& r : routed_) {
    if (!r.op.phase2) {
      IssueSubOp(slot, r);
      continue;
    }
    bool gated = false;
    for (const RowBarrier& rb : io.rows) {
      if (rb.row == r.op.row && rb.reads_left > 0) {
        gated = true;
        break;
      }
    }
    if (gated) {
      io.held.push_back(r);
    } else {
      // Full-stripe rows have no phase-1 reads to wait for.
      IssueSubOp(slot, r);
    }
  }

  if (io.outstanding == 0 && io.held.empty()) {
    // Degenerate plan (every target slot failed): nothing could be issued.
    CompleteParent(slot, now);
  }
}

void ArrayManager::CompleteParent(int slot, TimeMs now_ms) {
  PendingIo& io = pending_[static_cast<size_t>(slot)];
  if (io.parent.failed) {
    failed_foreground_++;
    metrics_->fault().failed_requests++;
  }
  metrics_->RecordCompletion(io.parent, now_ms, now_ms - io.submit_ms);
  io.rows.clear();
  free_slots_.push_back(slot);
}

void ArrayManager::OnMemberCompletion(const Request& sub, TimeMs now_ms) {
  SubRef ref;
  if (TakeSubRef(sub.id, &ref)) {
    PendingIo& io = pending_[static_cast<size_t>(ref.slot)];
    io.outstanding--;
    if (sub.failed) {
      io.parent.failed = true;
    }
    if (!ref.phase2 && ref.row >= 0) {
      for (RowBarrier& rb : io.rows) {
        if (rb.row != ref.row) {
          continue;
        }
        if (--rb.reads_left == 0) {
          // The row's reads are in: release its held phase-2 writes in
          // order, compacting the rest in place so held keeps its capacity.
          size_t kept = 0;
          for (size_t i = 0; i < io.held.size(); ++i) {
            const RoutedOp r = io.held[i];
            if (r.op.row == ref.row) {
              IssueSubOp(ref.slot, r);
            } else {
              io.held[kept++] = r;
            }
          }
          io.held.resize(kept);
        }
        break;
      }
    }
    if (io.outstanding == 0 && io.held.empty()) {
      CompleteParent(ref.slot, now_ms);
    }
    return;
  }

  // Rebuild traffic for the chunk in flight.
  const auto read_it = std::find(chunk_read_ids_.begin(), chunk_read_ids_.end(), sub.id);
  if (read_it != chunk_read_ids_.end()) {
    *read_it = chunk_read_ids_.back();
    chunk_read_ids_.pop_back();
    if (chunk_read_ids_.empty() && super_.state == ArrayState::kRebuilding) {
      // Survivor reads done: copy the reconstructed chunk onto the target.
      Request write;
      write.type = IoType::kWrite;
      write.lbn = super_.rebuild_cursor_blocks;
      write.block_count = chunk_blocks_;
      SubmitRebuildIo(super_.rebuild_device, write);
    }
    return;
  }
  if (sub.id == chunk_write_id_ && super_.state == ArrayState::kRebuilding) {
    CommitChunk(now_ms);
    return;
  }
  // Orphaned I/O (from before a Restart(), or of a rebuild chunk that a
  // failure aborted): nothing to do.
}

void ArrayManager::SubmitRebuildIo(int device, const Request& io) {
  Request task = io;
  const bool is_write = task.type == IoType::kWrite;
  if (config_.rebuild_policy == RebuildPolicy::kIdle) {
    const int64_t id = per_device_[static_cast<size_t>(device)].background->Enqueue(task);
    if (is_write) {
      chunk_write_id_ = id;
    } else {
      chunk_read_ids_.push_back(id);
    }
    return;
  }
  task.id = next_greedy_id_++;
  task.background = true;
  task.arrival_ms = sim_->NowMs();
  if (is_write) {
    chunk_write_id_ = task.id;
  } else {
    chunk_read_ids_.push_back(task.id);
  }
  per_device_[static_cast<size_t>(device)].driver->Submit(task);
}

void ArrayManager::StartNextChunk(TimeMs now_ms) {
  (void)now_ms;
  MSTK_CHECK(super_.state == ArrayState::kRebuilding, "chunk outside a rebuild");
  chunk_read_ids_.clear();
  chunk_write_id_ = -1;
  const int64_t cursor = super_.rebuild_cursor_blocks;
  chunk_blocks_ = static_cast<int32_t>(
      std::min<int64_t>(config_.rebuild_chunk_blocks, member_extent_ - cursor));
  MSTK_CHECK(chunk_blocks_ > 0, "rebuild past the member extent");

  Request read;
  read.type = IoType::kRead;
  read.lbn = cursor;
  read.block_count = chunk_blocks_;
  if (config_.raid.level == RaidLevel::kRaid1) {
    // Mirror rebuild: one live copy suffices.
    for (int s = 0; s < config_.active_members; ++s) {
      if (!super_.slot_failed[static_cast<size_t>(s)]) {
        SubmitRebuildIo(super_.slot_to_device[static_cast<size_t>(s)], read);
        break;
      }
    }
  } else {
    // RAID-5: the chunk is reconstructed from every surviving slot's blocks
    // at the same member offsets (data and parity alike).
    for (int s = 0; s < config_.active_members; ++s) {
      if (s == super_.rebuild_slot) {
        continue;
      }
      MSTK_CHECK(!super_.slot_failed[static_cast<size_t>(s)],
                 "rebuilding with a second failed slot");
      SubmitRebuildIo(super_.slot_to_device[static_cast<size_t>(s)], read);
    }
  }
}

void ArrayManager::CommitChunk(TimeMs now_ms) {
  super_.rebuild_cursor_blocks += chunk_blocks_;
  super_.Bump(now_ms);
  rebuild_chunks_committed_++;
  chunk_write_id_ = -1;
  chunk_blocks_ = 0;
  if (super_.rebuild_cursor_blocks >= member_extent_) {
    FinishRebuild(now_ms);
  } else {
    StartNextChunk(now_ms);
  }
}

void ArrayManager::FinishRebuild(TimeMs now_ms) {
  const int s = super_.rebuild_slot;
  super_.slot_to_device[static_cast<size_t>(s)] = super_.rebuild_device;
  super_.slot_failed[static_cast<size_t>(s)] = false;
  super_.rebuild_slot = -1;
  super_.rebuild_device = -1;
  super_.rebuild_cursor_blocks = 0;
  SetState(ArrayState::kResync, now_ms);
  ScheduleResyncDwell();
}

void ArrayManager::ScheduleResyncDwell() {
  const int64_t epoch = restart_epoch_;
  sim_->ScheduleAfter(config_.resync_dwell_ms, [this, epoch] {
    if (epoch != restart_epoch_ || super_.state != ArrayState::kResync) {
      return;
    }
    const bool any_failed = std::any_of(super_.slot_failed.begin(), super_.slot_failed.end(),
                                        [](bool f) { return f; });
    const TimeMs now = sim_->NowMs();
    SetState(any_failed ? ArrayState::kDegraded : ArrayState::kOptimal, now);
    MaybeStartRebuild(now);
  });
}

void ArrayManager::MaybeStartRebuild(TimeMs now_ms) {
  if (super_.state != ArrayState::kDegraded || super_.spare_pool.empty()) {
    return;
  }
  int slot = -1;
  for (int s = 0; s < config_.active_members; ++s) {
    if (super_.slot_failed[static_cast<size_t>(s)]) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    return;
  }
  super_.rebuild_slot = slot;
  super_.rebuild_device = super_.spare_pool.front();
  super_.spare_pool.erase(super_.spare_pool.begin());
  super_.rebuild_cursor_blocks = 0;
  SetState(ArrayState::kRebuilding, now_ms);
  StartNextChunk(now_ms);
}

void ArrayManager::FailDevice(int device, TimeMs now_ms) {
  MSTK_CHECK(device >= 0 && device < device_count(), "bad device index");
  if (super_.device_failed[static_cast<size_t>(device)]) {
    return;
  }
  super_.device_failed[static_cast<size_t>(device)] = true;
  super_.Bump(now_ms);

  // A pooled spare dying just shrinks the pool.
  const auto pool_it =
      std::find(super_.spare_pool.begin(), super_.spare_pool.end(), device);
  if (pool_it != super_.spare_pool.end()) {
    super_.spare_pool.erase(pool_it);
    return;
  }

  // The current rebuild target dying aborts the copy; the slot stays failed
  // and the next spare (if any) restarts the rebuild from zero.
  if (device == super_.rebuild_device) {
    chunk_read_ids_.clear();
    chunk_write_id_ = -1;
    chunk_blocks_ = 0;
    super_.rebuild_slot = -1;  // the slot itself stays failed
    super_.rebuild_device = -1;
    super_.rebuild_cursor_blocks = 0;
    SetState(ArrayState::kDegraded, now_ms);
    MaybeStartRebuild(now_ms);
    return;
  }

  // An active member died.
  int slot = -1;
  for (int s = 0; s < config_.active_members; ++s) {
    if (super_.slot_to_device[static_cast<size_t>(s)] == device) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    return;  // already-retired device
  }
  super_.slot_failed[static_cast<size_t>(slot)] = true;

  if (planner_.HealthFor(super_.slot_failed) == ArrayHealth::kFailed) {
    // Beyond the level's tolerance: stop everything, surface the state.
    chunk_read_ids_.clear();
    chunk_write_id_ = -1;
    super_.rebuild_slot = -1;
    super_.rebuild_device = -1;
    super_.rebuild_cursor_blocks = 0;
    SetState(ArrayState::kFailed, now_ms);
    return;
  }
  if (super_.state == ArrayState::kRebuilding) {
    // RAID-1 can lose another mirror while one rebuilds; the new slot waits
    // its turn (the resync dwell re-checks for failed slots).
    return;
  }
  SetState(ArrayState::kDegraded, now_ms);
  MaybeStartRebuild(now_ms);
}

void ArrayManager::Restart() {
  ++restart_epoch_;
  free_slots_.clear();
  for (int slot = static_cast<int>(pending_.size()) - 1; slot >= 0; --slot) {
    PendingIo& io = pending_[static_cast<size_t>(slot)];
    io.outstanding = 0;
    io.held.clear();
    io.rows.clear();
    free_slots_.push_back(slot);
  }
  oldest_sub_id_ = next_sub_id_;
  chunk_read_ids_.clear();
  chunk_write_id_ = -1;
  chunk_blocks_ = 0;
  for (PerDevice& pd : per_device_) {
    pd.background->DropPending();
  }
  ResumeFromSuperblock();
}

}  // namespace mstk
