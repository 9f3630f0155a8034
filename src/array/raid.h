// Multi-device arrays (§6.2): inter-device redundancy over StorageDevices.
//
// The paper argues MEMS-based storage is a much better mechanical match for
// code-based redundancy (RAID-5) than disks because the read-modify-write
// at the heart of every small parity update costs a sled turnaround instead
// of a full platter rotation. This module makes that quantitative in two
// layers:
//
//  - RaidPlanner: pure address math and request planning. An array request
//    is decomposed into member operations with per-stripe-row barriers
//    (parity updates wait for the old-data/old-parity reads of their row).
//    The planner is stateless over a failed-member bitmap, so the inline
//    timing model below and the managed ArrayManager (array_manager.h)
//    share one planning truth.
//  - RaidArray: the standalone timing model. Composes N member devices
//    (any mix of models) behind the StorageDevice interface and executes
//    plans inline with per-member sequencing. Like the underlying devices,
//    the array services one request at a time — the host-side queue lives
//    in the Driver.
#ifndef MSTK_SRC_ARRAY_RAID_H_
#define MSTK_SRC_ARRAY_RAID_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/storage_device.h"
#include "src/sim/units.h"

namespace mstk {

enum class RaidLevel {
  kRaid0,  // striping, no redundancy
  kRaid1,  // mirroring (N-way)
  kRaid5   // rotating parity (left-symmetric)
};

struct RaidConfig {
  RaidLevel level = RaidLevel::kRaid5;
  // Stripe unit in logical blocks (64 blocks = 32 KB).
  int32_t stripe_unit_blocks = 64;
};

// Whether the array can still serve every address, given its failed members.
// RAID-0 tolerates none, RAID-5 exactly one, RAID-1 all but one.
enum class ArrayHealth {
  kHealthy,   // no failed members
  kDegraded,  // failures within the level's fault tolerance
  kFailed     // unrecoverable: more failures than the level tolerates
};

// Address math result: an array block's home on one member.
struct MemberBlock {
  int member;
  int64_t lbn;
};

// Stateless request planner over a RAID geometry. All planning is in "slot"
// space: member indices name stripe slots, and a caller that promotes hot
// spares (ArrayManager) routes slots to physical devices itself.
class RaidPlanner {
 public:
  // One member operation within an array request plan.
  struct MemberOp {
    int member;
    int64_t lbn;
    int32_t blocks;
    IoType type;
    int64_t row;    // stripe row (phase barrier domain); -1 = none
    bool phase2;    // parity/data write that must wait for its row's reads
  };

  // Positioning-cost probe for RAID-1 read placement: estimated positioning
  // delay of reading `req`'s extent from live member `member` if dispatched
  // at `at_ms`.
  using MirrorCost = std::function<TimeMs(int member, const Request& req, TimeMs at_ms)>;

  RaidPlanner(const RaidConfig& config, int member_count);

  const RaidConfig& config() const { return config_; }
  int member_count() const { return member_count_; }

  // Usable array capacity with every member truncated to
  // `member_capacity_blocks` (rounded down to whole stripe units).
  [[nodiscard]] int64_t CapacityBlocks(int64_t member_capacity_blocks) const;

  // Health implied by a failed-member bitmap — the fault-tolerance
  // validation for every failure transition.
  [[nodiscard]] ArrayHealth HealthFor(const std::vector<bool>& failed) const;

  // Address math: maps an array block to (member, lbn).
  [[nodiscard]] MemberBlock MapRaid0(int64_t array_lbn) const;
  [[nodiscard]] MemberBlock MapRaid5Data(int64_t array_lbn) const;
  // Parity member for a RAID-5 stripe row.
  [[nodiscard]] int Raid5ParityMember(int64_t row) const;

  // Both planners write the plan into `ops`, which they clear first. The
  // buffer belongs to the caller, so a caller that plans request after
  // request reuses its capacity instead of allocating a plan each time.
  //
  // Plans a read issued at `at_ms`. Degraded RAID-5 reads reconstruct from
  // the survivors of the failed member's rows; RAID-1 picks the live mirror
  // with the cheapest positioning per `mirror_cost` (a null callback falls
  // back to the first live mirror). `failed` must be within the level's
  // fault tolerance (HealthFor != kFailed).
  void PlanRead(const Request& req, const std::vector<bool>& failed, TimeMs at_ms,
                const MirrorCost& mirror_cost, std::vector<MemberOp>* ops) const;
  // Plans a write: full-stripe RAID-5 writes skip the read-modify-write;
  // partial writes read old data + old parity first (phase 1) and gate the
  // new-data/new-parity writes on them (phase 2). With a failed data member
  // the parity unit is reconstructed from full surviving units and written
  // in full.
  void PlanWrite(const Request& req, const std::vector<bool>& failed,
                 std::vector<MemberOp>* ops) const;

 private:
  // Appends `op`, or extends its member's last op in `ops` when `op`
  // continues it physically and agrees on type, barrier row and phase.
  static void AppendCoalesced(const MemberOp& op, std::vector<MemberOp>* ops);
  void PlanRaid5RowWrite(int64_t row, int64_t first_unit, int64_t last_unit,
                         int64_t lbn_in_row_first, int32_t blocks,
                         const std::vector<bool>& failed, std::vector<MemberOp>* ops) const;

  RaidConfig config_;
  int member_count_;
};

class RaidArray : public StorageDevice {
 public:
  using MemberOp = RaidPlanner::MemberOp;

  // Members are borrowed and must outlive the array. All members must have
  // equal capacity (the array uses the minimum).
  RaidArray(const RaidConfig& config, std::vector<StorageDevice*> members);

  const char* name() const override { return name_.c_str(); }
  int64_t CapacityBlocks() const override { return capacity_blocks_; }
  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                                      ServiceBreakdown* breakdown = nullptr) override;
  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override;
  // Degraded penalty of the slowest member: array operations fan out to all
  // members, so the worst member's surcharge bounds the array's.
  [[nodiscard]] TimeMs DegradedPenaltyMs() const override {
    double worst = 0.0;
    for (const StorageDevice* m : members_) {
      worst = std::max(worst, m->DegradedPenaltyMs());
    }
    return worst;
  }
  void Reset() override;

  const RaidConfig& config() const { return planner_.config(); }
  const RaidPlanner& planner() const { return planner_; }
  int member_count() const { return static_cast<int>(members_.size()); }

  // Marks a member failed/repaired and revalidates fault tolerance: a
  // failure beyond the level's tolerance (any on RAID-0, a second on
  // RAID-5, the last mirror on RAID-1) transitions the array to
  // ArrayHealth::kFailed instead of crashing later inside planning.
  // Callers must check health() before issuing I/O to a failed array.
  void SetMemberFailed(int member, bool failed);
  bool member_failed(int member) const { return failed_[static_cast<size_t>(member)]; }
  ArrayHealth health() const { return health_; }

  // Address math, exposed for tests (delegates to the planner).
  [[nodiscard]] MemberBlock MapRaid0(int64_t array_lbn) const {
    return planner_.MapRaid0(array_lbn);
  }
  [[nodiscard]] MemberBlock MapRaid5Data(int64_t array_lbn) const {
    return planner_.MapRaid5Data(array_lbn);
  }
  [[nodiscard]] int Raid5ParityMember(int64_t row) const {
    return planner_.Raid5ParityMember(row);
  }

 private:
  // Plans `req` as issued at `at_ms` against the current failure state.
  void Plan(const Request& req, TimeMs at_ms, std::vector<MemberOp>* ops) const;

  // Executes the op graph starting at `start_ms`; returns completion time.
  double Execute(const std::vector<MemberOp>& ops, TimeMs start_ms,
                 ServiceBreakdown* breakdown);

  RaidPlanner planner_;
  std::vector<StorageDevice*> members_;
  std::vector<bool> failed_;
  ArrayHealth health_ = ArrayHealth::kHealthy;
  std::string name_;
  int64_t member_capacity_ = 0;
  int64_t capacity_blocks_ = 0;

  // Buffers every call reuses, so that their capacity is reached once. The
  // const estimate fills plan_ and seen_: it never re-enters itself or
  // ServiceRequest, since it calls only the members' estimates.
  mutable std::vector<MemberOp> plan_;
  mutable std::vector<bool> seen_;
  std::vector<double> ready_;
  std::vector<std::pair<int64_t, double>> barriers_;  // (row, phase-1 done)
};

}  // namespace mstk

#endif  // MSTK_SRC_ARRAY_RAID_H_
