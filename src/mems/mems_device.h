// Performance model of a MEMS-based storage device (§2, [GSGN00]).
//
// The device tracks the media sled's mechanical state (X offset, Y offset,
// Y velocity) between requests. Servicing a request:
//
//   1. Positioning: an X seek to the target cylinder (plus settling time
//      whenever the sled moved in X) proceeds in parallel with a Y seek that
//      delivers the sled to one end of the target row span moving at the
//      access velocity; total positioning = max(Tx, Ty) (§2.4.1). The device
//      picks the cheaper of the two media read directions (the media is
//      readable in both Y directions).
//   2. Transfer: each pass over a row of tip sectors moves `slots_per_row`
//      LBNs concurrently and takes tip_sector_bits / per_tip_rate. Track and
//      cylinder switches mid-transfer cost a turnaround overlapped with the
//      (tiny) X step + settle.
#ifndef MSTK_SRC_MEMS_MEMS_DEVICE_H_
#define MSTK_SRC_MEMS_MEMS_DEVICE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/storage_device.h"
#include "src/mems/geometry.h"
#include "src/mems/kinematics.h"
#include "src/mems/mems_params.h"
#include "src/sim/rng.h"

namespace mstk {

// Mechanical state of the media sled between requests.
struct SledState {
  double x = 0.0;   // m, sled X offset (always at rest in X between requests)
  double y = 0.0;   // m, sled Y offset
  double vy = 0.0;  // m/s, 0 or +/- access velocity
};

class MemsDevice : public StorageDevice {
 public:
  explicit MemsDevice(const MemsParams& params = MemsParams{});

  const char* name() const override { return "mems"; }
  int64_t CapacityBlocks() const override { return geometry_.capacity_blocks(); }
  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                        ServiceBreakdown* breakdown = nullptr) override;
  // Computes every leg directly: the reference the memoized paths must
  // match bit for bit.
  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override;

  // Positioning order (see StorageDevice), on both springs: a request's key
  // is the cylinder of its first segment, and the key leg is the X leg, the
  // X seek plus settle from the sled to that cylinder (zero on the sled's
  // own cylinder). The state has a key only on the bounded-force sled, and
  // only once it rests on a cylinder after a service: not on a fresh
  // device, nor after Reset() or set_sled(). From there its X leg never
  // shrinks outward (a property test checks every pair for the G1-G3
  // presets), while the resonant spring's can, so SPTF prunes on the
  // bounded-force sled only.
  int32_t PositioningKey(const Request& req) const override;
  int32_t StateKey() const override {
    return params().spring_model == SpringModel::kBoundedForce ? sled_cylinder_ : kNoKey;
  }
  [[nodiscard]] TimeMs KeyLegMs(int32_t key) const override {
    return SecondsToMs(XLegSeconds(key));
  }
  // Same bits as EstimatePositioningMs; takes the Y legs from the Y-leg
  // table (see below).
  [[nodiscard]] TimeMs EstimateGivenKeyLeg(const Request& req, TimeMs key_leg_ms,
                                           TimeMs at_ms) const override;
  // Degraded mode (§6.1, spares exhausted): failed tips are masked out, so
  // every access pays one extra row pass to cover the lost concurrency.
  [[nodiscard]] TimeMs DegradedPenaltyMs() const override { return RowPassMs(); }
  void Reset() override;

  // Seek errors (§6.1.3): with probability `rate` per request the servo
  // misses and the sled retries — up to two Y turnarounds plus an X
  // re-settle. Deterministic for a given seed; Reset() restores the seed.
  void EnableSeekErrors(double rate, uint64_t seed);

  const MemsParams& params() const { return geometry_.params(); }
  const MemsGeometry& geometry() const { return geometry_; }
  const SledKinematics& kinematics() const { return kinematics_; }
  const SledState& sled() const { return sled_; }
  void set_sled(const SledState& state) {
    sled_ = state;
    sled_y_state_ = kOffBoundary;
    sled_cylinder_ = kNoKey;
  }

  // --- direct model probes (tests, Table 2, ablations) -------------------
  // Rest-to-rest X seek between cylinders, ms (no settle included).
  TimeMs CylinderSeekMs(int32_t from_cyl, int32_t to_cyl) const;
  // Settling delay charged after any X motion, ms.
  TimeMs SettleMs() const { return SecondsToMs(params().settle_seconds()); }
  // Turnaround at Y offset `y` moving at +/- access velocity, ms.
  TimeMs TurnaroundMs(double y) const;
  // One row pass (smallest transfer quantum), ms.
  TimeMs RowPassMs() const { return SecondsToMs(params().row_pass_seconds()); }

 private:
  // A contiguous run of rows within one (cylinder, track).
  struct Segment {
    int32_t cylinder;
    int32_t track;
    int32_t row_first;
    int32_t row_last;
    int64_t last_lbn;  // last LBN the segment reads
  };

  // Aborts unless `req` names at least one block, all on the device.
  void CheckRequest(const Request& req) const;

  // The segment that reads from `lbn` to the end of its track, or to
  // `last_lbn` if that comes first.
  Segment SegmentAt(int64_t lbn, int64_t last_lbn) const;

  // Positioning time (seconds) from `state` to reading segment `seg` in
  // direction `dir` (+1 ascending rows, -1 descending). Tx/Ty overlap.
  double PositioningSeconds(const SledState& state, const Segment& seg, int dir) const;

  // X leg (seconds) from the sled to `cylinder`: seek plus settle, or zero
  // when the sled is already there.
  double XLegSeconds(int32_t cylinder) const;
  // Rest-to-rest X seek (seconds, no settle) from the sled to `cylinder`,
  // whose X offset `target_x` differs from the sled's. Read through the
  // X-seek memo while the sled rests on a cylinder.
  double XSeekSeconds(int32_t cylinder, double target_x) const;
  // Positioning estimate (ms) for `seg` given its X leg in ms.
  [[nodiscard]] TimeMs EstimateGivenXLeg(const Segment& seg, TimeMs x_leg_ms) const;

  // Row boundaries where reading `seg` in direction `dir` enters and leaves
  // the segment, and their Y offsets.
  static int32_t EntryBoundary(const Segment& seg, int dir) {
    return dir > 0 ? seg.row_first : seg.row_last + 1;
  }
  static int32_t ExitBoundary(const Segment& seg, int dir) {
    return dir > 0 ? seg.row_last + 1 : seg.row_first;
  }
  double EntryY(const Segment& seg, int dir) const {
    return geometry_.RowBoundaryY(EntryBoundary(seg, dir));
  }
  double ExitY(const Segment& seg, int dir) const {
    return geometry_.RowBoundaryY(ExitBoundary(seg, dir));
  }

  // Y-leg table. Between requests the sled rests in Y on a row boundary
  // (where it left the last row it read) moving at +/- the access velocity,
  // and every Y target is a row boundary entered at +/- the access
  // velocity. So once the sled has serviced a request, every Y leg (both
  // candidate directions of an estimate, and every segment of a service)
  // is TravelSeconds between two of 2 * (rows_per_track + 1) states: 56 on
  // the Table 1 device. Each state's (y, vy) comes from the same expressions
  // every time, so the call's arguments, and hence its result, are the same
  // bits on every visit: the table returns exactly what the call would. It
  // holds 56 x 56 doubles, about 25 KB per device, each entry filled on
  // first use. The sled is off every boundary on a fresh device, after
  // Reset() and after set_sled(); legs from there are computed directly.
  //
  // The const estimate methods fill this mutable table and the X-seek memo
  // below, so one device must not be estimated from two threads at once.
  static constexpr int32_t kOffBoundary = -1;
  // Table index of the state "at row boundary `boundary`, moving in `dir`".
  static int32_t YState(int32_t boundary, int dir) {
    return 2 * boundary + (dir > 0 ? 1 : 0);
  }
  // Y leg from `from` (whose table index is `from_state`, or kOffBoundary)
  // to entering row boundary `to_boundary` moving in direction `dir`.
  double YLegSeconds(int32_t from_state, const SledState& from, int32_t to_boundary,
                     int dir) const;

  // X-seek memo. SPTF's walk computes the X leg of every cylinder it
  // visits (KeyLegMs), and the service of the request it picks needs the
  // seek to that cylinder again. A rest-to-rest seek depends only on its
  // two cylinders, so an entry keyed on (sled cylinder, target cylinder)
  // holds the bits SeekSeconds returns whatever the device did since, and
  // nothing ever invalidates it. 16 slots, direct-mapped on the target
  // cylinder: 256 B per device. Used only while the sled rests on a
  // cylinder (sled_cylinder_ != kNoKey); the scalar EstimatePositioningMs
  // never reads it.
  struct XSeek {
    int32_t from = kNoKey;
    int32_t to = kNoKey;
    double seconds = 0.0;
  };
  static constexpr size_t kXSeekSlots = 16;

  MemsGeometry geometry_;
  SledKinematics kinematics_;
  SledState sled_;
  int32_t sled_y_state_ = kOffBoundary;  // table index of sled_'s Y state
  int32_t sled_cylinder_ = kNoKey;       // cylinder the sled rests on, if any
  double v_access_;     // m/s
  double row_pass_s_;   // s
  int32_t y_states_;    // 2 * (rows_per_track + 1)
  mutable std::vector<double> y_leg_s_;  // y_states_^2 legs; < 0 until computed
  mutable std::array<XSeek, kXSeekSlots> x_seek_memo_{};
  double seek_error_rate_ = 0.0;
  uint64_t seek_error_seed_ = 0;
  Rng seek_error_rng_{seek_error_seed_};
};

}  // namespace mstk

#endif  // MSTK_SRC_MEMS_MEMS_DEVICE_H_
