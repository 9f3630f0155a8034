// Abstract storage device driven by the simulation.
//
// Both device models (src/mems, src/disk) implement this interface; the
// queueing driver and the schedulers are device-agnostic, exactly as the
// paper maps MEMS-based storage behind a disk-like (SCSI-like) interface.
#ifndef MSTK_SRC_CORE_STORAGE_DEVICE_H_
#define MSTK_SRC_CORE_STORAGE_DEVICE_H_

#include <cstdint>

#include "src/core/request.h"
#include "src/sim/units.h"

namespace mstk {

// Phases of one request's lifecycle — the decomposition every figure in
// §4–§7 uses. Device models fill the mechanical phases; the driver adds the
// queue wait and any dispatch penalty (restart-from-standby, §7).
enum class Phase : int {
  kQueue = 0,   // arrival -> dispatch wait (driver-side)
  kSeekX,       // X seek (disk: cylinder seek incl. head-switch overlap)
  kSeekY,       // Y seek (disk: initial rotational latency)
  kSettle,      // post-X-motion settling time
  kTurnaround,  // mid-transfer reversals / track & cylinder switches
  kTransfer,    // media transfer
  kOverhead,    // seek-error retries, restart penalties, command/ECC cost
  kFault,       // driver-side fault recovery: failed attempts, retry backoff,
                // lost-completion timeouts, degraded-mode surcharge (§6)
};
inline constexpr int kPhaseCount = 8;

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kQueue: return "queue";
    case Phase::kSeekX: return "seek_x";
    case Phase::kSeekY: return "seek_y";
    case Phase::kSettle: return "settle";
    case Phase::kTurnaround: return "turnaround";
    case Phase::kTransfer: return "transfer";
    case Phase::kOverhead: return "overhead";
    case Phase::kFault: return "fault";
  }
  return "?";
}

// Per-request phase timings (all ms). The service-time phases tile the
// interval [dispatch, completion]: their sum equals the recorded service
// time (up to floating-point rounding of the per-phase unit conversions).
struct PhaseBreakdown {
  TimeMs phase_ms[kPhaseCount] = {};

  TimeMs& operator[](Phase p) { return phase_ms[static_cast<int>(p)]; }
  TimeMs operator[](Phase p) const { return phase_ms[static_cast<int>(p)]; }

  // Sum of the service phases (everything except the queue wait).
  TimeMs service_ms() const {
    double sum = 0.0;
    for (int i = 1; i < kPhaseCount; ++i) {
      sum += phase_ms[i];
    }
    return sum;
  }
};

// Per-request service time decomposition (all in ms).
struct ServiceBreakdown {
  TimeMs positioning_ms = 0.0;  // initial seek (+ settle, + rotational latency)
  TimeMs transfer_ms = 0.0;     // media transfer
  TimeMs extra_ms = 0.0;        // mid-transfer turnarounds / head & track switches

  // Finer per-phase split; primary device models fill it alongside the
  // coarse fields above.
  PhaseBreakdown phases;

  TimeMs total_ms() const { return positioning_ms + transfer_ms + extra_ms; }

  // Derives `phases` from the coarse fields when a device model did not
  // provide the finer split (composite devices: RAID, caches).
  void EnsurePhases() {
    // "No phases filled yet" test: phase times are non-negative, so a zero
    // sum means every entry is zero without comparing floats for equality.
    if (!(phases.service_ms() > 0.0) && total_ms() > 0.0) {
      phases[Phase::kSeekX] = positioning_ms;
      phases[Phase::kTransfer] = transfer_ms;
      phases[Phase::kTurnaround] = extra_ms;
    }
  }
};

// Cumulative activity counters, for the power/energy accounting in §7.
struct DeviceActivity {
  TimeMs busy_ms = 0.0;
  TimeMs positioning_ms = 0.0;
  TimeMs transfer_ms = 0.0;
  int64_t requests = 0;
  int64_t blocks_read = 0;
  int64_t blocks_written = 0;
};

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  virtual const char* name() const = 0;
  virtual int64_t CapacityBlocks() const = 0;

  // Services `req` starting at virtual time `start_ms`; advances the device's
  // mechanical state and returns the service duration in ms. When `breakdown`
  // is non-null it receives the component times.
  [[nodiscard]] virtual double ServiceRequest(const Request& req, TimeMs start_ms,
                                ServiceBreakdown* breakdown = nullptr) = 0;

  // Positioning-delay estimate for greedy scheduling (SPTF): time until the
  // media transfer for `req` could begin if it were dispatched at `at_ms`.
  // Const: must not change device state (a model may fill a mutable memo).
  [[nodiscard]] virtual TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const = 0;

  // --- Positioning order (SPTF's outward walk, src/sched/sptf.h) ---------
  // Positioning splits into a "key leg" that depends only on a request's
  // key and the current state (MEMS: the X seek plus settle to the
  // request's first cylinder) and the rest. SPTF files every pending
  // request under its key and estimates it through the split. The
  // contract, bit for bit and in every state:
  //
  //   EstimatePositioningMs(r, t) ==
  //       EstimateGivenKeyLeg(r, KeyLegMs(PositioningKey(r)), t)
  //                               >= KeyLegMs(PositioningKey(r)),
  //
  // with PositioningKey(r) >= 0. While StateKey() != kNoKey, KeyLegMs(k)
  // also never decreases as k moves away from StateKey() on either side;
  // SPTF then visits keys outward from the state's key and stops early.
  // While it is kNoKey, SPTF visits every occupied key. KeyLegFloorMs(k)
  // is a cheap lower bound SPTF prunes on before it asks for the leg:
  //
  //   0 <= KeyLegFloorMs(k) <= KeyLegMs(k)
  //
  // as doubles, in every state, and never NaN (a NaN floor would end the
  // walk early). The defaults file every request under key 0 with a zero
  // key leg and a zero floor and give the state no key, so SPTF estimates
  // every pending request; a wrapper device that does not forward these
  // methods stays exact that way.
  static constexpr int32_t kNoKey = -1;

  // Key (>= 0) of `req`. It must not depend on the device state: SPTF
  // files each request under its key once, when it is added.
  virtual int32_t PositioningKey(const Request& /*req*/) const { return 0; }

  // Key the current state rests on, or kNoKey when key legs need not grow
  // outward from any key in this state.
  virtual int32_t StateKey() const { return kNoKey; }

  // Key leg (ms) from the current state to `key`.
  [[nodiscard]] virtual TimeMs KeyLegMs(int32_t /*key*/) const { return 0.0; }

  // Lower bound (ms) on KeyLegMs(key) in the current state; see above.
  [[nodiscard]] virtual TimeMs KeyLegFloorMs(int32_t /*key*/) const { return 0.0; }

  // EstimatePositioningMs(req, at_ms), given the key leg of req's key.
  [[nodiscard]] virtual TimeMs EstimateGivenKeyLeg(const Request& req, TimeMs /*key_leg_ms*/,
                                                   TimeMs at_ms) const {
    return EstimatePositioningMs(req, at_ms);
  }

  // Nothing in src/ calls these three; they stay only because the
  // benchmark's TimedDevice (perfbench/decorators.h) overrides them.
  virtual void EstimatePositioningBatch(const Request* reqs, int64_t count, TimeMs at_ms,
                                        TimeMs* out_ms) const {
    for (int64_t i = 0; i < count; ++i) out_ms[i] = EstimatePositioningMs(reqs[i], at_ms);
  }
  virtual uint64_t StateEpoch() const { return 0; }
  virtual bool PositioningIsTimeFree() const { return false; }

  // Per-request latency surcharge once the device runs in degraded mode
  // (spare pool exhausted, §6.1): the MEMS model pays an extra row pass with
  // failed tips masked out; disks pay broken sequentiality (slip/spare-region
  // seeks plus lost rotation). Charged by the driver, never by the device
  // model itself, so fault-free runs are bit-identical to the old path.
  [[nodiscard]] virtual TimeMs DegradedPenaltyMs() const { return 0.0; }

  // Restores initial mechanical state and clears activity counters.
  virtual void Reset() = 0;

  const DeviceActivity& activity() const { return activity_; }

 protected:
  DeviceActivity activity_;
};

}  // namespace mstk

#endif  // MSTK_SRC_CORE_STORAGE_DEVICE_H_
