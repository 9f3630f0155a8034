#include "src/disk/disk_geometry.h"

#include <cassert>
#include <cmath>

namespace mstk {
namespace {

double Frac(double x) { return x - std::floor(x); }

}  // namespace

DiskGeometry::DiskGeometry(const DiskParams& params) : params_(params) {
  assert(params_.zones >= 1 && params_.cylinders >= params_.zones);
  zones_.reserve(static_cast<size_t>(params_.zones));
  int32_t next_cyl = 0;
  int64_t next_lbn = 0;
  for (int z = 0; z < params_.zones; ++z) {
    Zone zone;
    zone.first_cylinder = next_cyl;
    // Spread cylinders as evenly as possible.
    zone.cylinder_count = params_.cylinders / params_.zones +
                          (z < params_.cylinders % params_.zones ? 1 : 0);
    const double frac = params_.zones == 1
                            ? 0.0
                            : static_cast<double>(z) / (params_.zones - 1);
    zone.sectors_per_track = static_cast<int>(std::lround(
        params_.outer_sectors_per_track -
        frac * (params_.outer_sectors_per_track - params_.inner_sectors_per_track)));
    zone.first_lbn = next_lbn;
    zone.block_count = static_cast<int64_t>(zone.cylinder_count) * params_.heads *
                       zone.sectors_per_track;
    next_cyl += zone.cylinder_count;
    next_lbn += zone.block_count;
    zones_.push_back(zone);
  }
  capacity_blocks_ = next_lbn;

  const double rev = params_.revolution_ms();
  track_skew_frac_ = params_.head_switch_ms / rev;
  cylinder_skew_frac_ = params_.single_cylinder_seek_ms / rev;
}

const DiskGeometry::Zone& DiskGeometry::ZoneForLbn(int64_t lbn) const {
  assert(lbn >= 0 && lbn < capacity_blocks_);
  // Linear zone counts are tiny (24); binary search is overkill but cheap.
  size_t lo = 0;
  size_t hi = zones_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi + 1) / 2;
    if (zones_[mid].first_lbn <= lbn) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return zones_[lo];
}

const DiskGeometry::Zone& DiskGeometry::ZoneForCylinder(int32_t cylinder) const {
  assert(cylinder >= 0 && cylinder < params_.cylinders);
  size_t lo = 0;
  size_t hi = zones_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi + 1) / 2;
    if (zones_[mid].first_cylinder <= cylinder) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return zones_[lo];
}

DiskAddress DiskGeometry::Decode(int64_t lbn) const {
  const Zone& zone = ZoneForLbn(lbn);
  int64_t off = lbn - zone.first_lbn;
  DiskAddress addr;
  addr.sector = static_cast<int32_t>(off % zone.sectors_per_track);
  off /= zone.sectors_per_track;
  addr.head = static_cast<int32_t>(off % params_.heads);
  off /= params_.heads;
  addr.cylinder = zone.first_cylinder + static_cast<int32_t>(off);
  return addr;
}

int64_t DiskGeometry::Encode(const DiskAddress& addr) const {
  const Zone& zone = ZoneForCylinder(addr.cylinder);
  const int64_t track_index =
      static_cast<int64_t>(addr.cylinder - zone.first_cylinder) * params_.heads + addr.head;
  return zone.first_lbn + track_index * zone.sectors_per_track + addr.sector;
}

int DiskGeometry::SectorsPerTrack(int32_t cylinder) const {
  return ZoneForCylinder(cylinder).sectors_per_track;
}

double DiskGeometry::Track0Phase(int32_t cylinder, int32_t head) const {
  // Sequential track order is (c,0)..(c,H-1),(c+1,0)...; head switches within
  // a cylinder get track skew, cylinder boundaries get cylinder skew.
  const double head_switches =
      static_cast<double>(cylinder) * (params_.heads - 1) + head;
  const double cyl_switches = static_cast<double>(cylinder);
  return Frac(head_switches * track_skew_frac_ + cyl_switches * cylinder_skew_frac_);
}

double DiskGeometry::SectorPhase(const DiskAddress& addr) const {
  const int spt = SectorsPerTrack(addr.cylinder);
  return Frac(Track0Phase(addr.cylinder, addr.head) +
              static_cast<double>(addr.sector) / spt);
}

}  // namespace mstk
