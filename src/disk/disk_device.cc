#include "src/disk/disk_device.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/check.h"

namespace mstk {
namespace {

double Frac(double x) { return x - std::floor(x); }

// Rotational wait from the current phase to a target phase, treating
// sub-nanosecond misses of "already there" as zero instead of a full
// revolution (floating-point phase arithmetic).
double RotationalWait(double target_phase, double now_phase, double rev_ms) {
  double frac = Frac(target_phase - now_phase);
  if (frac > 1.0 - 1e-9) {
    frac = 0.0;
  }
  return frac * rev_ms;
}

}  // namespace

DiskDevice::DiskDevice(const DiskParams& params)
    : geometry_(params),
      seek_curve_(params.cylinders, params.single_cylinder_seek_ms, params.average_seek_ms,
                  params.full_stroke_seek_ms),
      rev_ms_(params.revolution_ms()) {
  Reset();
}

void DiskDevice::Reset() {
  cylinder_ = 0;
  head_ = 0;
  activity_ = DeviceActivity{};
  seek_error_rng_ = Rng(seek_error_seed_);
}

void DiskDevice::EnableSeekErrors(double rate, uint64_t seed) {
  assert(rate >= 0.0 && rate <= 1.0);
  seek_error_rate_ = rate;
  seek_error_seed_ = seed;
  seek_error_rng_ = Rng(seed);
}

double DiskDevice::PhaseAt(TimeMs t_ms) const { return Frac(t_ms / rev_ms_); }

TimeMs DiskDevice::PositioningToMs(const DiskAddress& addr, TimeMs at_ms) const {
  const int64_t distance = std::abs(static_cast<int64_t>(addr.cylinder) - cylinder_);
  double mech = seek_curve_.SeekMs(distance);
  if (addr.head != head_) {
    // Head switch overlaps all but the shortest seeks.
    mech = std::max(mech, geometry_.params().head_switch_ms);
  }
  const double arrive = at_ms + mech;
  const double target_phase = geometry_.SectorPhase(addr);
  const double wait = RotationalWait(target_phase, PhaseAt(arrive), rev_ms_);
  return mech + wait;
}

TimeMs DiskDevice::ServiceRequest(const Request& req, TimeMs start_ms,
                                  ServiceBreakdown* breakdown) {
  MSTK_CHECK(req.lbn >= 0 && req.last_lbn() < CapacityBlocks(),
             "request outside device capacity");
  double t = start_ms;

  // Phase attribution: the seek curve already folds arm settle into seek_x,
  // rotational waits go to seek_y (initial) / turnaround (mid-transfer), and
  // retry penalties to overhead.
  PhaseBreakdown phases;

  DiskAddress addr = geometry_.Decode(req.lbn);
  // Initial mechanical positioning.
  const int64_t distance = std::abs(static_cast<int64_t>(addr.cylinder) - cylinder_);
  double mech = seek_curve_.SeekMs(distance);
  if (addr.head != head_) {
    mech = std::max(mech, geometry_.params().head_switch_ms);
  }
  t += mech;
  phases[Phase::kSeekX] = mech;
  // Seek-error retry (§6.1.3): wrong-track settle costs a short re-seek and
  // loses the rotational alignment.
  if (seek_error_rate_ > 0.0 && seek_error_rng_.Bernoulli(seek_error_rate_)) {
    t += 1.5;  // short re-seek + re-settle
    mech += 1.5;
    phases[Phase::kOverhead] += 1.5;
  }
  // Initial rotational latency.
  const double first_wait =
      RotationalWait(geometry_.SectorPhase(addr), PhaseAt(t), rev_ms_);
  t += first_wait;
  phases[Phase::kSeekY] = first_wait;
  const double positioning_ms = mech + first_wait;

  double transfer_ms = 0.0;
  double extra_ms = 0.0;
  int64_t cursor = req.lbn;
  int32_t remaining = req.block_count;
  for (;;) {
    const int spt = geometry_.SectorsPerTrack(addr.cylinder);
    const int32_t run = std::min<int32_t>(remaining, spt - addr.sector);
    const double chunk = static_cast<double>(run) / spt * rev_ms_;
    t += chunk;
    transfer_ms += chunk;
    remaining -= run;
    cursor += run;
    if (remaining == 0) {
      break;
    }
    // Cross to the next track (head switch or single-cylinder step), then
    // wait for its first sector (skew makes this wait near zero).
    const DiskAddress next = geometry_.Decode(cursor);
    const double sw = next.cylinder != addr.cylinder
                          ? std::max(seek_curve_.SeekMs(1), geometry_.params().head_switch_ms)
                          : geometry_.params().head_switch_ms;
    t += sw;
    const double wait = RotationalWait(geometry_.SectorPhase(next), PhaseAt(t), rev_ms_);
    t += wait;
    extra_ms += sw + wait;
    addr = next;
  }

  cylinder_ = addr.cylinder;
  head_ = addr.head;

  if (breakdown != nullptr) {
    *breakdown = ServiceBreakdown{positioning_ms, transfer_ms, extra_ms, {}};
    phases[Phase::kTransfer] = transfer_ms;
    phases[Phase::kTurnaround] = extra_ms;
    breakdown->phases = phases;
  }
  const double total_ms = t - start_ms;
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

TimeMs DiskDevice::EstimatePositioningMs(const Request& req, TimeMs at_ms) const {
  return PositioningToMs(geometry_.Decode(req.lbn), at_ms);
}

}  // namespace mstk
