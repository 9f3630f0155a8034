#include "src/array/raid.h"

#include <algorithm>

#include "src/sim/check.h"

namespace mstk {

RaidPlanner::RaidPlanner(const RaidConfig& config, int member_count)
    : config_(config), member_count_(member_count) {
  MSTK_CHECK(member_count_ >= 1, "array needs at least one member");
  MSTK_CHECK(config_.stripe_unit_blocks > 0, "bad stripe unit");
  if (config_.level == RaidLevel::kRaid5) {
    MSTK_CHECK(member_count_ >= 3, "RAID-5 needs >= 3 members");
  }
}

int64_t RaidPlanner::CapacityBlocks(int64_t member_capacity_blocks) const {
  const int64_t unit = config_.stripe_unit_blocks;
  const int64_t per_member = member_capacity_blocks - member_capacity_blocks % unit;
  const int64_t n = member_count_;
  switch (config_.level) {
    case RaidLevel::kRaid0:
      return per_member * n;
    case RaidLevel::kRaid1:
      return per_member;
    case RaidLevel::kRaid5:
      return per_member * (n - 1);
  }
  return 0;
}

ArrayHealth RaidPlanner::HealthFor(const std::vector<bool>& failed) const {
  int down = 0;
  for (const bool f : failed) {
    down += f ? 1 : 0;
  }
  if (down == 0) {
    return ArrayHealth::kHealthy;
  }
  switch (config_.level) {
    case RaidLevel::kRaid0:
      return ArrayHealth::kFailed;  // striping tolerates no failure
    case RaidLevel::kRaid1:
      return down < member_count_ ? ArrayHealth::kDegraded : ArrayHealth::kFailed;
    case RaidLevel::kRaid5:
      return down <= 1 ? ArrayHealth::kDegraded : ArrayHealth::kFailed;
  }
  return ArrayHealth::kFailed;
}

MemberBlock RaidPlanner::MapRaid0(int64_t array_lbn) const {
  const int64_t unit = config_.stripe_unit_blocks;
  const int64_t n = member_count_;
  const int64_t u = array_lbn / unit;
  return MemberBlock{static_cast<int>(u % n), (u / n) * unit + array_lbn % unit};
}

int RaidPlanner::Raid5ParityMember(int64_t row) const {
  const int64_t n = member_count_;
  return static_cast<int>((n - 1) - (row % n));
}

MemberBlock RaidPlanner::MapRaid5Data(int64_t array_lbn) const {
  const int64_t unit = config_.stripe_unit_blocks;
  const int64_t n = member_count_;
  const int64_t u = array_lbn / unit;
  const int64_t row = u / (n - 1);
  const int64_t col = u % (n - 1);
  const int parity = Raid5ParityMember(row);
  const int member = col < parity ? static_cast<int>(col) : static_cast<int>(col) + 1;
  return MemberBlock{member, row * unit + array_lbn % unit};
}

void RaidPlanner::AppendCoalesced(const MemberOp& op, std::vector<MemberOp>* ops) {
  // Striping visits the members round-robin, but each member's successive
  // units are contiguous LBNs, so a large request becomes one long run per
  // member. Ops may only merge when they agree on phase, barrier row, AND
  // type: a row-tagged reconstruct read adjacent to an untagged normal read
  // must keep its barrier identity, not silently inherit its neighbor's.
  for (auto last = ops->rbegin(); last != ops->rend(); ++last) {
    if (last->member != op.member) {
      continue;
    }
    if (last->lbn + last->blocks == op.lbn && last->phase2 == op.phase2 &&
        last->row == op.row && last->type == op.type) {
      last->blocks += op.blocks;
      return;
    }
    break;
  }
  ops->push_back(op);
}

void RaidPlanner::PlanRead(const Request& req, const std::vector<bool>& failed, TimeMs at_ms,
                           const MirrorCost& mirror_cost, std::vector<MemberOp>* ops) const {
  ops->clear();
  const int64_t unit = config_.stripe_unit_blocks;
  switch (config_.level) {
    case RaidLevel::kRaid1: {
      // Read from the live member with the cheapest positioning, estimated
      // at the actual issue time (device state at `at_ms`, not time zero).
      int best = -1;
      double best_cost = 0.0;
      for (int m = 0; m < member_count_; ++m) {
        if (failed[static_cast<size_t>(m)]) {
          continue;
        }
        if (best >= 0 && !mirror_cost) {
          break;  // no probe: first live mirror wins
        }
        const double cost = mirror_cost ? mirror_cost(m, req, at_ms) : 0.0;
        if (best < 0 || cost < best_cost) {
          best = m;
          best_cost = cost;
        }
      }
      MSTK_CHECK(best >= 0, "all mirrors failed");
      ops->push_back(MemberOp{best, req.lbn, req.block_count, IoType::kRead, -1, false});
      return;
    }
    case RaidLevel::kRaid0:
    case RaidLevel::kRaid5: {
      int64_t cursor = req.lbn;
      int64_t remaining = req.block_count;
      while (remaining > 0) {
        const int64_t in_unit = cursor % unit;
        const int32_t run = static_cast<int32_t>(std::min<int64_t>(remaining, unit - in_unit));
        const MemberBlock mb =
            config_.level == RaidLevel::kRaid0 ? MapRaid0(cursor) : MapRaid5Data(cursor);
        if (config_.level == RaidLevel::kRaid5 && failed[static_cast<size_t>(mb.member)]) {
          // Degraded read: reconstruct from every other member's blocks at
          // the same row offsets (data peers + parity).
          const int64_t row = mb.lbn / unit;
          for (int m = 0; m < member_count_; ++m) {
            if (m == mb.member) {
              continue;
            }
            MSTK_CHECK(!failed[static_cast<size_t>(m)], "RAID-5 cannot survive two failures");
            AppendCoalesced(MemberOp{m, mb.lbn, run, IoType::kRead, row, false}, ops);
          }
        } else {
          AppendCoalesced(MemberOp{mb.member, mb.lbn, run, IoType::kRead, -1, false}, ops);
        }
        cursor += run;
        remaining -= run;
      }
      return;
    }
  }
}

void RaidPlanner::PlanRaid5RowWrite(int64_t row, int64_t first_unit, int64_t last_unit,
                                    int64_t lbn_in_row_first, int32_t blocks,
                                    const std::vector<bool>& failed,
                                    std::vector<MemberOp>* ops) const {
  const int64_t unit = config_.stripe_unit_blocks;
  const int64_t n = member_count_;
  const int parity = Raid5ParityMember(row);
  const bool parity_live = !failed[static_cast<size_t>(parity)];
  const int64_t units_in_row = n - 1;
  const bool full_stripe = (first_unit == 0 && last_unit == units_in_row - 1 &&
                            lbn_in_row_first % unit == 0 && blocks == units_in_row * unit);

  // Calls visit(member, in_unit, run) for each covered unit, in order.
  const auto for_each_covered = [&](const auto& visit) {
    int64_t cursor = lbn_in_row_first;
    int64_t remaining = blocks;
    for (int64_t u = first_unit; u <= last_unit; ++u) {
      const int64_t in_unit = cursor % unit;
      const int32_t run = static_cast<int32_t>(std::min<int64_t>(remaining, unit - in_unit));
      visit(u < parity ? static_cast<int>(u) : static_cast<int>(u) + 1, in_unit, run);
      cursor += run;
      remaining -= run;
    }
  };

  // Reconstruct-write mode is decided by whether any covered data unit is
  // failed, and whether every failed covered unit is written in full (if
  // not, the old parity must be read to stand in for the failed unit's
  // unwritten blocks).
  bool any_data_failed = false;
  bool failed_units_fully_written = true;
  for_each_covered([&](int member, int64_t in_unit, int32_t run) {
    if (failed[static_cast<size_t>(member)]) {
      any_data_failed = true;
      if (in_unit != 0 || run != unit) {
        failed_units_fully_written = false;
      }
    }
  });
  const bool reconstruct = any_data_failed && parity_live && !full_stripe;

  for_each_covered([&](int member, int64_t in_unit, int32_t run) {
    if (failed[static_cast<size_t>(member)]) {
      return;  // nothing to issue against a failed member
    }
    if (!full_stripe) {
      if (reconstruct) {
        // Reconstruct-write: parity is rebuilt from the *full* surviving
        // units, so read the whole unit, not just the written span.
        ops->push_back(
            MemberOp{member, row * unit, static_cast<int32_t>(unit), IoType::kRead, row, false});
      } else {
        ops->push_back(MemberOp{member, row * unit + in_unit, run, IoType::kRead, row, false});
      }
    }
    ops->push_back(MemberOp{member, row * unit + in_unit, run, IoType::kWrite, row, true});
  });

  if (reconstruct) {
    // Read the surviving data units the write does not touch, in full.
    for (int64_t u = 0; u < units_in_row; ++u) {
      if (u >= first_unit && u <= last_unit) {
        continue;  // covered above
      }
      const int member = u < parity ? static_cast<int>(u) : static_cast<int>(u) + 1;
      if (failed[static_cast<size_t>(member)]) {
        continue;
      }
      ops->push_back(
          MemberOp{member, row * unit, static_cast<int32_t>(unit), IoType::kRead, row, false});
    }
    // A failed unit that is not fully overwritten keeps old blocks the
    // survivors cannot supply — they only exist XOR-ed into the old parity.
    if (!failed_units_fully_written) {
      ops->push_back(
          MemberOp{parity, row * unit, static_cast<int32_t>(unit), IoType::kRead, row, false});
    }
  }

  if (parity_live) {
    if (full_stripe || reconstruct) {
      // Full-stripe parity is computed from the new data alone; a
      // reconstructed parity unit is rebuilt (and therefore written) whole —
      // a partial parity write would leave the unwritten span inconsistent
      // with the full-unit reconstruction it was computed from.
      ops->push_back(
          MemberOp{parity, row * unit, static_cast<int32_t>(unit), IoType::kWrite, row, true});
    } else {
      // Healthy RMW: old parity in, new parity out over the written span
      // (the union span across covered units; middle units are full).
      const int64_t span_lo = lbn_in_row_first % unit;
      int64_t span_hi = (lbn_in_row_first % unit) + blocks;
      if (last_unit > first_unit) {
        span_hi = unit;  // middle units are fully covered; span is [lo, unit)
      }
      span_hi = std::min<int64_t>(span_hi, unit);
      const int64_t parity_lo = first_unit == last_unit ? span_lo : 0;
      const int64_t parity_blocks = first_unit == last_unit ? span_hi - span_lo : unit;
      ops->push_back(MemberOp{parity, row * unit + parity_lo,
                              static_cast<int32_t>(parity_blocks), IoType::kRead, row, false});
      ops->push_back(MemberOp{parity, row * unit + parity_lo,
                              static_cast<int32_t>(parity_blocks), IoType::kWrite, row, true});
    }
  }
}

void RaidPlanner::PlanWrite(const Request& req, const std::vector<bool>& failed,
                            std::vector<MemberOp>* ops) const {
  ops->clear();
  const int64_t unit = config_.stripe_unit_blocks;
  switch (config_.level) {
    case RaidLevel::kRaid1: {
      for (int m = 0; m < member_count_; ++m) {
        if (!failed[static_cast<size_t>(m)]) {
          ops->push_back(MemberOp{m, req.lbn, req.block_count, IoType::kWrite, -1, false});
        }
      }
      return;
    }
    case RaidLevel::kRaid0: {
      int64_t cursor = req.lbn;
      int64_t remaining = req.block_count;
      while (remaining > 0) {
        const int64_t in_unit = cursor % unit;
        const int32_t run = static_cast<int32_t>(std::min<int64_t>(remaining, unit - in_unit));
        const MemberBlock mb = MapRaid0(cursor);
        AppendCoalesced(MemberOp{mb.member, mb.lbn, run, IoType::kWrite, -1, false}, ops);
        cursor += run;
        remaining -= run;
      }
      return;
    }
    case RaidLevel::kRaid5: {
      const int64_t n = member_count_;
      const int64_t row_span = (n - 1) * unit;  // data blocks per stripe row
      int64_t cursor = req.lbn;
      int64_t remaining = req.block_count;
      while (remaining > 0) {
        const int64_t row = cursor / row_span;
        const int64_t in_row = cursor % row_span;
        const int64_t take = std::min<int64_t>(remaining, row_span - in_row);
        PlanRaid5RowWrite(row, in_row / unit, (in_row + take - 1) / unit,
                          row * unit + (in_row % unit), static_cast<int32_t>(take), failed, ops);
        cursor += take;
        remaining -= take;
      }
      return;
    }
  }
}

RaidArray::RaidArray(const RaidConfig& config, std::vector<StorageDevice*> members)
    : planner_(config, static_cast<int>(members.size())), members_(std::move(members)) {
  MSTK_CHECK(!members_.empty(), "array needs at least one member");
  failed_.assign(members_.size(), false);

  member_capacity_ = members_[0]->CapacityBlocks();
  for (StorageDevice* m : members_) {
    member_capacity_ = std::min(member_capacity_, m->CapacityBlocks());
  }
  // Round to whole stripe units.
  member_capacity_ -= member_capacity_ % config.stripe_unit_blocks;
  capacity_blocks_ = planner_.CapacityBlocks(member_capacity_);

  switch (config.level) {
    case RaidLevel::kRaid0:
      name_ = "raid0";
      break;
    case RaidLevel::kRaid1:
      name_ = "raid1";
      break;
    case RaidLevel::kRaid5:
      name_ = "raid5";
      break;
  }
}

void RaidArray::Reset() {
  for (StorageDevice* m : members_) {
    m->Reset();
  }
  std::fill(failed_.begin(), failed_.end(), false);
  health_ = ArrayHealth::kHealthy;
  activity_ = DeviceActivity{};
}

void RaidArray::SetMemberFailed(int member, bool failed) {
  MSTK_CHECK(member >= 0 && member < member_count(), "bad member index");
  failed_[static_cast<size_t>(member)] = failed;
  // Validate fault tolerance at the transition: an over-tolerance failure
  // surfaces as ArrayHealth::kFailed here, not as a crash deep inside a
  // later degraded-read plan.
  health_ = planner_.HealthFor(failed_);
}

void RaidArray::Plan(const Request& req, TimeMs at_ms, std::vector<MemberOp>* ops) const {
  if (req.is_read()) {
    const RaidPlanner::MirrorCost mirror_cost = [this](int member, const Request& probe,
                                                       TimeMs at) {
      return members_[static_cast<size_t>(member)]->EstimatePositioningMs(probe, at);
    };
    planner_.PlanRead(req, failed_, at_ms, mirror_cost, ops);
  } else {
    planner_.PlanWrite(req, failed_, ops);
  }
}

TimeMs RaidArray::Execute(const std::vector<MemberOp>& ops, TimeMs start_ms,
                          ServiceBreakdown* breakdown) {
  ready_.assign(members_.size(), start_ms);
  // Row barrier: phase-2 ops of a row wait for all that row's phase-1 ops.
  barriers_.clear();
  auto barrier_for = [this](int64_t row) -> double* {
    for (auto& [r, t] : barriers_) {
      if (r == row) {
        return &t;
      }
    }
    barriers_.emplace_back(row, 0.0);
    return &barriers_.back().second;
  };

  double end = start_ms;
  double phase1_end = start_ms;
  // Phase 1 (reads and barrier-free ops).
  for (const MemberOp& op : ops) {
    if (op.phase2) {
      continue;
    }
    Request sub;
    sub.lbn = op.lbn;
    sub.block_count = op.blocks;
    sub.type = op.type;
    const double t0 = ready_[static_cast<size_t>(op.member)];
    const double done = t0 + members_[static_cast<size_t>(op.member)]->ServiceRequest(sub, t0);
    ready_[static_cast<size_t>(op.member)] = done;
    if (op.row >= 0) {
      double* barrier = barrier_for(op.row);
      *barrier = std::max(*barrier, done);
    }
    end = std::max(end, done);
    phase1_end = std::max(phase1_end, done);
  }
  // Phase 2 (writes gated on their row's phase 1).
  for (const MemberOp& op : ops) {
    if (!op.phase2) {
      continue;
    }
    Request sub;
    sub.lbn = op.lbn;
    sub.block_count = op.blocks;
    sub.type = op.type;
    double t0 = ready_[static_cast<size_t>(op.member)];
    if (op.row >= 0) {
      t0 = std::max(t0, *barrier_for(op.row));
    }
    const double done = t0 + members_[static_cast<size_t>(op.member)]->ServiceRequest(sub, t0);
    ready_[static_cast<size_t>(op.member)] = done;
    end = std::max(end, done);
  }

  if (breakdown != nullptr) {
    // Approximate: phase 1 (pre-write stall) as positioning, rest transfer.
    breakdown->positioning_ms = phase1_end - start_ms;
    breakdown->transfer_ms = end - phase1_end;
    breakdown->extra_ms = 0.0;
  }
  return end - start_ms;
}

TimeMs RaidArray::ServiceRequest(const Request& req, TimeMs start_ms,
                                 ServiceBreakdown* breakdown) {
  MSTK_CHECK(req.lbn >= 0 && req.last_lbn() < capacity_blocks_, "request outside array capacity");
  MSTK_CHECK(health_ != ArrayHealth::kFailed,
             "array is unrecoverable (failures exceed the RAID level's tolerance); "
             "check health() before issuing I/O");
  Plan(req, start_ms, &plan_);
  const double total_ms = Execute(plan_, start_ms, breakdown);

  activity_.busy_ms += total_ms;
  activity_.requests += 1;
  if (req.is_read()) {
    activity_.blocks_read += req.block_count;
  } else {
    activity_.blocks_written += req.block_count;
  }
  return total_ms;
}

TimeMs RaidArray::EstimatePositioningMs(const Request& req, TimeMs at_ms) const {
  // Time until every member involved in the first phase can start moving
  // data: the max of the members' first-op positioning estimates.
  Plan(req, at_ms, &plan_);
  double worst = 0.0;
  seen_.assign(members_.size(), false);
  for (const MemberOp& op : plan_) {
    if (op.phase2 || seen_[static_cast<size_t>(op.member)]) {
      continue;
    }
    seen_[static_cast<size_t>(op.member)] = true;
    Request sub;
    sub.lbn = op.lbn;
    sub.block_count = op.blocks;
    sub.type = op.type;
    worst = std::max(worst,
                     members_[static_cast<size_t>(op.member)]->EstimatePositioningMs(sub, at_ms));
  }
  return worst;
}

}  // namespace mstk
