#include "src/mems/mems_device.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/check.h"

namespace mstk {

MemsDevice::MemsDevice(const MemsParams& params)
    : geometry_(params),
      kinematics_(SledAxisParams{params.sled_accel_ms2, params.half_range_m(),
                                 params.spring_factor, params.spring_coeff()}),
      v_access_(params.access_velocity()),
      row_pass_s_(params.row_pass_seconds()),
      y_states_(2 * (params.rows_per_track() + 1)),
      y_leg_s_(static_cast<size_t>(y_states_) * static_cast<size_t>(y_states_), -1.0) {
  Reset();
}

void MemsDevice::Reset() {
  sled_ = SledState{0.0, 0.0, 0.0};
  sled_y_state_ = kOffBoundary;
  sled_cylinder_ = kNoKey;
  activity_ = DeviceActivity{};
  seek_error_rng_ = Rng(seek_error_seed_);
}

void MemsDevice::EnableSeekErrors(double rate, uint64_t seed) {
  assert(rate >= 0.0 && rate <= 1.0);
  seek_error_rate_ = rate;
  seek_error_seed_ = seed;
  seek_error_rng_ = Rng(seed);
}

TimeMs MemsDevice::CylinderSeekMs(int32_t from_cyl, int32_t to_cyl) const {
  return SecondsToMs(
      kinematics_.SeekSeconds(geometry_.CylinderX(from_cyl), geometry_.CylinderX(to_cyl)));
}

TimeMs MemsDevice::TurnaroundMs(double y) const {
  return SecondsToMs(kinematics_.TurnaroundSeconds(y, v_access_));
}

void MemsDevice::CheckRequest(const Request& req) const {
  MSTK_CHECK(req.block_count >= 1, "request has no blocks");
  MSTK_CHECK(req.lbn >= 0 && req.last_lbn() < CapacityBlocks(),
             "request outside device capacity");
}

MemsDevice::Segment MemsDevice::SegmentAt(int64_t lbn, int64_t last_lbn) const {
  const MemsAddress addr = geometry_.Decode(lbn);
  // Last LBN of this track (track-aligned arithmetic; serpentine row order
  // makes Encode of physical row rows-1 the wrong probe).
  const int64_t track_blocks = geometry_.params().blocks_per_track();
  const int64_t track_last = (lbn / track_blocks + 1) * track_blocks - 1;
  const int64_t seg_last = std::min(track_last, last_lbn);
  const int32_t other_row = geometry_.Decode(seg_last).row;
  return Segment{addr.cylinder, addr.track, std::min(addr.row, other_row),
                 std::max(addr.row, other_row), seg_last};
}

double MemsDevice::YLegSeconds(int32_t from_state, const SledState& from,
                               int32_t to_boundary, int dir) const {
  const auto travel = [&] {
    return kinematics_.TravelSeconds(from.y, from.vy, geometry_.RowBoundaryY(to_boundary),
                                     dir * v_access_);
  };
  if (from_state == kOffBoundary) {
    return travel();
  }
  double& leg = y_leg_s_[static_cast<size_t>(from_state) * static_cast<size_t>(y_states_) +
                         static_cast<size_t>(YState(to_boundary, dir))];
  if (leg < 0.0) {
    leg = travel();
  }
  return leg;
}

double MemsDevice::PositioningSeconds(const SledState& state, const Segment& seg,
                                      int dir) const {
  const double target_x = geometry_.CylinderX(seg.cylinder);
  double tx = 0.0;
  if (target_x != state.x) {
    tx = kinematics_.SeekSeconds(state.x, target_x) + geometry_.params().settle_seconds();
  }
  const double ty = kinematics_.TravelSeconds(state.y, state.vy, EntryY(seg, dir),
                                              dir * v_access_);
  return std::max(tx, ty);
}

TimeMs MemsDevice::ServiceRequest(const Request& req, TimeMs start_ms,
                                  ServiceBreakdown* breakdown) {
  (void)start_ms;  // the MEMS model has no time-dependent component (no rotation)
  CheckRequest(req);
  const int64_t last_lbn = req.last_lbn();
  Segment seg = SegmentAt(req.lbn, last_lbn);

  // Phase attribution (seconds). Overlapped X/Y intervals are charged to the
  // dominant component: positioning = max(Tx, Ty) goes to seek_x + settle
  // when the X leg dominates, else to seek_y (initial) / turnaround
  // (mid-transfer). The attributed times therefore tile the service time.
  double phase_s[kPhaseCount] = {};
  const double settle_s = geometry_.params().settle_seconds();

  // Initial positioning: pick the cheaper read direction for the first
  // segment. Same expressions as PositioningSeconds, decomposed so the X
  // seek is attributable separately from the settle.
  const double target_x0 = geometry_.CylinderX(seg.cylinder);
  double x_seek0_s = 0.0;
  double tx0 = 0.0;
  if (target_x0 != sled_.x) {
    x_seek0_s = XSeekSeconds(seg.cylinder, target_x0);
    tx0 = x_seek0_s + settle_s;
  }
  const double ty0_up = YLegSeconds(sled_y_state_, sled_, EntryBoundary(seg, +1), +1);
  const double ty0_down = YLegSeconds(sled_y_state_, sled_, EntryBoundary(seg, -1), -1);
  const double pos_up = std::max(tx0, ty0_up);
  const double pos_down = std::max(tx0, ty0_down);
  int dir = pos_up <= pos_down ? +1 : -1;
  double positioning_s = std::min(pos_up, pos_down);
  if (tx0 >= (dir > 0 ? ty0_up : ty0_down)) {
    phase_s[static_cast<int>(Phase::kSeekX)] += x_seek0_s;
    phase_s[static_cast<int>(Phase::kSettle)] += tx0 > 0.0 ? settle_s : 0.0;
  } else {
    phase_s[static_cast<int>(Phase::kSeekY)] += dir > 0 ? ty0_up : ty0_down;
  }

  // Seek-error retry (§6.1.3): the servo check fails and the sled backs up
  // over the sector — up to two turnarounds plus an X re-settle.
  if (seek_error_rate_ > 0.0 && seek_error_rng_.Bernoulli(seek_error_rate_)) {
    const double entry_y = EntryY(seg, dir);
    const double retry_s =
        2.0 * kinematics_.TurnaroundSeconds(entry_y, dir * v_access_) + settle_s;
    positioning_s += retry_s;
    phase_s[static_cast<int>(Phase::kOverhead)] += retry_s;
  }

  SledState state;
  state.x = target_x0;
  state.y = ExitY(seg, dir);
  state.vy = dir * v_access_;
  int32_t y_state = YState(ExitBoundary(seg, dir), dir);

  double transfer_s = (seg.row_last - seg.row_first + 1) * row_pass_s_;
  double extra_s = 0.0;

  while (seg.last_lbn < last_lbn) {
    seg = SegmentAt(seg.last_lbn + 1, last_lbn);
    // X step (zero within a cylinder) overlaps the Y reposition.
    double x_seek_s = 0.0;
    double tx = 0.0;
    const double target_x = geometry_.CylinderX(seg.cylinder);
    if (target_x != state.x) {
      x_seek_s = kinematics_.SeekSeconds(state.x, target_x);
      tx = x_seek_s + settle_s;
    }
    // Greedy direction choice; for full-track segments this degenerates to
    // the serpentine turnaround.
    const double ty_up = YLegSeconds(y_state, state, EntryBoundary(seg, +1), +1);
    const double ty_down = YLegSeconds(y_state, state, EntryBoundary(seg, -1), -1);
    dir = ty_up <= ty_down ? +1 : -1;
    const double ty = std::min(ty_up, ty_down);
    extra_s += std::max(tx, ty);
    if (tx >= ty) {
      phase_s[static_cast<int>(Phase::kSeekX)] += x_seek_s;
      phase_s[static_cast<int>(Phase::kSettle)] += tx > 0.0 ? settle_s : 0.0;
    } else {
      phase_s[static_cast<int>(Phase::kTurnaround)] += ty;
    }

    state.x = target_x;
    state.y = ExitY(seg, dir);
    state.vy = dir * v_access_;
    y_state = YState(ExitBoundary(seg, dir), dir);
    transfer_s += (seg.row_last - seg.row_first + 1) * row_pass_s_;
  }
  phase_s[static_cast<int>(Phase::kTransfer)] = transfer_s;

  sled_ = state;
  sled_y_state_ = y_state;
  sled_cylinder_ = seg.cylinder;

  const double positioning_ms = SecondsToMs(positioning_s);
  const double transfer_ms = SecondsToMs(transfer_s);
  const double extra_ms = SecondsToMs(extra_s);
  if (breakdown != nullptr) {
    *breakdown = ServiceBreakdown{positioning_ms, transfer_ms, extra_ms, {}};
    for (int i = 0; i < kPhaseCount; ++i) {
      breakdown->phases.phase_ms[i] = SecondsToMs(phase_s[i]);
    }
  }

  const double total_ms = positioning_ms + transfer_ms + extra_ms;
  activity_.busy_ms += total_ms;
  activity_.positioning_ms += positioning_ms + extra_ms;
  activity_.transfer_ms += transfer_ms;
  activity_.requests += 1;
  if (req.is_read()) {
    activity_.blocks_read += req.block_count;
  } else {
    activity_.blocks_written += req.block_count;
  }
  return total_ms;
}

TimeMs MemsDevice::EstimatePositioningMs(const Request& req, TimeMs at_ms) const {
  (void)at_ms;
  CheckRequest(req);
  const Segment seg = SegmentAt(req.lbn, req.last_lbn());
  const double pos_up = PositioningSeconds(sled_, seg, +1);
  const double pos_down = PositioningSeconds(sled_, seg, -1);
  return SecondsToMs(std::min(pos_up, pos_down));
}

int32_t MemsDevice::PositioningKey(const Request& req) const {
  CheckRequest(req);
  return geometry_.Decode(req.lbn).cylinder;
}

TimeMs MemsDevice::EstimateGivenKeyLeg(const Request& req, TimeMs key_leg_ms,
                                       TimeMs at_ms) const {
  (void)at_ms;
  CheckRequest(req);
  return EstimateGivenXLeg(SegmentAt(req.lbn, req.last_lbn()), key_leg_ms);
}

double MemsDevice::XLegSeconds(int32_t cylinder) const {
  // Same expression as PositioningSeconds' X leg.
  const double target_x = geometry_.CylinderX(cylinder);
  return target_x != sled_.x
             ? XSeekSeconds(cylinder, target_x) + geometry_.params().settle_seconds()
             : 0.0;
}

double MemsDevice::XSeekSeconds(int32_t cylinder, double target_x) const {
  if (sled_cylinder_ == kNoKey) {
    return kinematics_.SeekSeconds(sled_.x, target_x);
  }
  XSeek& entry = x_seek_memo_[static_cast<size_t>(cylinder) % kXSeekSlots];
  if (entry.from != sled_cylinder_ || entry.to != cylinder) {
    entry = XSeek{sled_cylinder_, cylinder, kinematics_.SeekSeconds(sled_.x, target_x)};
  }
  return entry.seconds;
}

TimeMs MemsDevice::EstimateGivenXLeg(const Segment& seg, TimeMs x_leg_ms) const {
  // The scalar estimate converts min(max(tx, ty_up), max(tx, ty_down)) to
  // ms; SecondsToMs is monotone, so taking min and max after converting
  // each leg gives the same bits.
  const TimeMs ty_up =
      SecondsToMs(YLegSeconds(sled_y_state_, sled_, EntryBoundary(seg, +1), +1));
  const TimeMs ty_down =
      SecondsToMs(YLegSeconds(sled_y_state_, sled_, EntryBoundary(seg, -1), -1));
  return std::min(std::max(x_leg_ms, ty_up), std::max(x_leg_ms, ty_down));
}

}  // namespace mstk
