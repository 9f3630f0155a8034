// ArrayManager: a managed fleet of storage devices behind one volume
// (ROADMAP item 1; the datacenter-scale counterpart of RaidArray).
//
// Where RaidArray times a plan inline against borrowed device models, the
// manager composes N *full* device stacks — every member gets its own
// IoScheduler, queue, and Driver inside one shared Simulator — and fans an
// array request out through those real per-device I/O paths: phase-1 reads
// queue and contend like any other I/O, and per-stripe-row barriers gate
// the phase-2 parity/data writes on the completions the simulator actually
// delivers. On top of the data path it runs the management plane the
// standalone model lacks:
//
//  - a versioned/timestamped ArraySuperblock recording lifecycle state,
//    slot routing, the spare pool, and the rebuild cursor, so a
//    degraded -> rebuilding -> resync cycle survives Restart();
//  - a hot-spare pool with automatic promotion when a member fails (driven
//    by the Driver's degraded sink or an explicit FailDevice call);
//  - a chunked background rebuild engine that reconstructs the failed
//    slot's data from the survivors onto the spare, either on device idle
//    (RebuildPolicy::kIdle, through BackgroundRunner) or queued head-on
//    against foreground traffic (kGreedy), one chunk in flight;
//  - foreground writes landing below the rebuild cursor are mirrored to
//    the rebuild target so already-copied data never goes stale.
//
// Everything runs in one Simulator, so results are a pure function of the
// request stream and seeds — TrialRunner fans trials across threads with
// byte-identical output at any --jobs, as everywhere else in the tree.
#ifndef MSTK_SRC_ARRAY_ARRAY_MANAGER_H_
#define MSTK_SRC_ARRAY_ARRAY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/array/raid.h"
#include "src/array/superblock.h"
#include "src/core/background.h"
#include "src/core/driver.h"
#include "src/core/io_scheduler.h"
#include "src/core/metrics.h"
#include "src/core/request.h"
#include "src/core/storage_device.h"
#include "src/sim/simulator.h"
#include "src/sim/units.h"

namespace mstk {

// When rebuild chunks are allowed to touch the devices.
enum class RebuildPolicy {
  kIdle,   // only after a member has been idle for rebuild_idle_delay_ms
  kGreedy  // queued immediately, competing with foreground requests
};

const char* RebuildPolicyName(RebuildPolicy policy);

struct ArrayManagerConfig {
  RaidConfig raid;
  // Slots in the RAID geometry. Devices beyond the first `active_members`
  // form the hot-spare pool.
  int active_members = 4;
  // Blocks of each member the array actually stripes over (a partition, so
  // rebuild covers a bounded extent instead of a whole device). 0 = the
  // full common device capacity.
  int64_t member_extent_blocks = 16384;
  RebuildPolicy rebuild_policy = RebuildPolicy::kIdle;
  // Rebuild copies this many member blocks per chunk, one chunk in flight.
  int32_t rebuild_chunk_blocks = 512;
  // Idle hysteresis before an idle-policy rebuild I/O is injected.
  TimeMs rebuild_idle_delay_ms = 0.2;
  // Dwell in kResync (parity verify) before returning to kOptimal.
  TimeMs resync_dwell_ms = 5.0;
};

// Builds the per-member scheduler; called once per device at construction.
using SchedulerFactory = std::function<std::unique_ptr<IoScheduler>(const StorageDevice*)>;

// Ready-made factories for the two scheduler families the benches sweep.
SchedulerFactory MakeFcfsFactory();
SchedulerFactory MakeSptfFactory();

// Returns nullptr when an ArrayManager built with `config` over
// `device_count` devices, whose member extent is `member_extent` blocks
// (ArrayManager::member_extent_blocks), may adopt `sb`; else the reason it
// may not. Every field is checked, so a superblock that passes restores
// without indexing past a device table or tripping a rebuild invariant
// mid-run. The restore constructor dies with this reason; a caller holding
// an untrusted superblock can ask first.
const char* RestoreError(const ArraySuperblock& sb, const ArrayManagerConfig& config,
                         int device_count, int64_t member_extent);

class ArrayManager {
 public:
  // Lifecycle transition log entry (also reflected in the superblock).
  struct Transition {
    ArrayState state;
    TimeMs at_ms;
    int64_t version;  // superblock version stamped by the transition
  };

  // `devices` are borrowed and must outlive the manager; the first
  // config.active_members are the initial active set, the rest hot spares.
  // `metrics` (borrowed) receives array-level foreground records: one
  // dispatch/completion pair per *array* request, never per member sub-op.
  ArrayManager(Simulator* sim, const ArrayManagerConfig& config,
               std::vector<StorageDevice*> devices, const SchedulerFactory& scheduler_factory,
               MetricsCollector* metrics);
  // Restore form: adopts `restored` (a superblock saved from a previous
  // manager) instead of the factory-fresh state — the "reboot after a crash
  // mid-rebuild" path. An in-progress rebuild resumes from its cursor. Dies
  // unless RestoreError accepts `restored`.
  ArrayManager(Simulator* sim, const ArrayManagerConfig& config,
               std::vector<StorageDevice*> devices, const SchedulerFactory& scheduler_factory,
               MetricsCollector* metrics, const ArraySuperblock& restored);

  ArrayManager(const ArrayManager&) = delete;
  ArrayManager& operator=(const ArrayManager&) = delete;

  int64_t CapacityBlocks() const { return capacity_blocks_; }
  int device_count() const { return static_cast<int>(devices_.size()); }
  int64_t member_extent_blocks() const { return member_extent_; }
  ArrayState state() const { return super_.state; }
  const ArraySuperblock& superblock() const { return super_; }
  const RaidPlanner& planner() const { return planner_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  int64_t rebuild_chunks_committed() const { return rebuild_chunks_committed_; }
  int64_t failed_foreground() const { return failed_foreground_; }

  // The member driver, for wiring fault models / traces from a harness.
  // Members run without a MetricsCollector: they keep fault counters only.
  Driver* driver(int device) { return per_device_[static_cast<size_t>(device)].driver.get(); }
  // Aggregated fault/rebuild counters across the member drivers, summed in
  // device order.
  FaultCounters DeviceFaults() const;

  // Submits one foreground array request at the current virtual time. The
  // request fans out through the member I/O paths; the array-level
  // completion is recorded when the last sub-op (respecting stripe-row
  // barriers) finishes. Requests against a kFailed array complete
  // immediately, marked failed.
  void Submit(const Request& req);
  // Foreground array requests submitted but not yet completed.
  int64_t outstanding() const {
    return static_cast<int64_t>(pending_.size() - free_slots_.size());
  }

  // Fails a physical device out of the array: active slots degrade the
  // array and (spare permitting) start a rebuild; pooled spares just leave
  // the pool. Also the target of the member drivers' degraded sinks.
  void FailDevice(int device, TimeMs now_ms);
  // Attaches per-member fault models (index-aligned with the devices, null
  // entries skipped): enables driver recovery and routes each driver's
  // degraded sink to FailDevice.
  void AttachFaultModels(const std::vector<FaultModel*>& models, const RecoveryPolicy& policy);

  // Simulated crash + reboot in place: every in-flight array request and
  // rebuild chunk is forgotten (their member completions become orphans and
  // are ignored), then state is re-adopted from the superblock — a rebuild
  // resumes from rebuild_cursor_blocks, not from zero.
  void Restart();

 private:
  // A member sub-op routed to a physical device (slot routing resolved, and
  // possibly off-geometry: rebuild-target mirror writes).
  struct RoutedOp {
    int device;
    RaidPlanner::MemberOp op;
  };
  struct RowBarrier {
    int64_t row;
    int reads_left;
  };
  // One in-flight foreground array request, in a reusable slot of pending_.
  struct PendingIo {
    Request parent;
    TimeMs submit_ms = 0.0;
    int outstanding = 0;  // issued sub-ops not yet completed
    std::vector<RoutedOp> held;  // phase-2 ops waiting on their row barrier
    std::vector<RowBarrier> rows;
  };
  // Reverse route from a live member sub-op back to its array request.
  struct SubRef {
    int slot = -1;  // pending_ slot; -1 once the sub-op has completed
    bool phase2 = false;
    int64_t row = -1;
  };

  void Init(const SchedulerFactory& scheduler_factory);
  void ResumeFromSuperblock();
  void SetState(ArrayState next, TimeMs now_ms);

  // Plans `req` and routes its member ops into routed_.
  void RouteRequest(const Request& req);
  void IssueSubOp(int slot, const RoutedOp& routed);
  void CompleteParent(int slot, TimeMs now_ms);
  void OnMemberCompletion(const Request& sub, TimeMs now_ms);
  // Retires live sub-op `id` into `*ref`; false if `id` is not a live
  // foreground sub-op (rebuild traffic, or an orphan from before Restart()).
  bool TakeSubRef(int64_t id, SubRef* ref);

  void MaybeStartRebuild(TimeMs now_ms);
  void StartNextChunk(TimeMs now_ms);
  void SubmitRebuildIo(int device, const Request& io);
  void CommitChunk(TimeMs now_ms);
  void FinishRebuild(TimeMs now_ms);
  void ScheduleResyncDwell();

  Simulator* sim_;
  ArrayManagerConfig config_;
  MetricsCollector* metrics_;
  std::vector<StorageDevice*> devices_;
  RaidPlanner planner_;
  int64_t member_extent_ = 0;
  int64_t capacity_blocks_ = 0;

  struct PerDevice {
    std::unique_ptr<IoScheduler> scheduler;
    std::unique_ptr<Driver> driver;
    std::unique_ptr<BackgroundRunner> background;
  };
  std::vector<PerDevice> per_device_;

  ArraySuperblock super_;
  std::vector<Transition> transitions_;

  // Foreground bookkeeping in reusable tables, so a steady-state request
  // allocates nothing. No iteration order is involved: a request is found
  // through its slot index and a sub-op through its id, so which slot a
  // request takes never reaches an output.
  //  - pending_: in-flight requests by slot. A freed slot goes on
  //    free_slots_ and keeps its vectors' capacity for the next request.
  //  - sub_refs_: live sub-ops by id. Ids are issued in order, so the live
  //    ones lie in [oldest_sub_id_, next_sub_id_); each sits at its id
  //    modulo the ring's power-of-two size, which doubles when the window
  //    would wrap. Restart() moves oldest_sub_id_ to next_sub_id_, which
  //    turns every earlier completion into an ignored orphan.
  std::vector<PendingIo> pending_;
  std::vector<int> free_slots_;
  std::vector<SubRef> sub_refs_;
  int64_t oldest_sub_id_ = kSubIdBase;
  int64_t next_sub_id_ = kSubIdBase;
  int64_t failed_foreground_ = 0;
  // Submit's scratch: the plan and its routed member ops.
  std::vector<RaidPlanner::MemberOp> plan_;
  std::vector<RoutedOp> routed_;

  // Rebuild chunk in flight: outstanding survivor-read ids (unordered),
  // then the copy-back write id.
  std::vector<int64_t> chunk_read_ids_;
  int64_t chunk_write_id_ = -1;
  int32_t chunk_blocks_ = 0;
  int64_t next_greedy_id_ = kGreedyRebuildIdBase;
  int64_t rebuild_chunks_committed_ = 0;
  // Bumped by Restart(); pending resync-dwell events from before the
  // restart see a stale epoch and do nothing.
  int64_t restart_epoch_ = 0;

  // Id-space partitions: foreground sub-ops, per-device idle rebuild
  // (BackgroundRunner), greedy rebuild.
  static constexpr int64_t kSubIdBase = 1LL << 35;
  static constexpr int64_t kIdleRebuildIdBase = 1LL << 40;
  static constexpr int64_t kIdleRebuildIdStride = 1LL << 30;
  static constexpr int64_t kGreedyRebuildIdBase = 1LL << 50;
};

}  // namespace mstk

#endif  // MSTK_SRC_ARRAY_ARRAY_MANAGER_H_
