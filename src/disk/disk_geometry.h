// Zoned disk geometry: LBN <-> <cylinder, head, sector> with banded
// recording and skewed layout.
#ifndef MSTK_SRC_DISK_DISK_GEOMETRY_H_
#define MSTK_SRC_DISK_DISK_GEOMETRY_H_

#include <cstdint>
#include <vector>

#include "src/disk/disk_params.h"

namespace mstk {

struct DiskAddress {
  int32_t cylinder = 0;
  int32_t head = 0;
  int32_t sector = 0;  // within the track

  friend bool operator==(const DiskAddress&, const DiskAddress&) = default;
};

class DiskGeometry {
 public:
  explicit DiskGeometry(const DiskParams& params);

  const DiskParams& params() const { return params_; }
  int64_t capacity_blocks() const { return capacity_blocks_; }

  DiskAddress Decode(int64_t lbn) const;
  int64_t Encode(const DiskAddress& addr) const;

  int SectorsPerTrack(int32_t cylinder) const;

  // Rotational phase (fraction of a revolution in [0,1)) at which sector 0
  // of the given track passes under the head, implementing track and
  // cylinder skews sized to hide head-switch and single-cylinder-seek times.
  double Track0Phase(int32_t cylinder, int32_t head) const;

  // Phase at which `sector` begins on its track.
  double SectorPhase(const DiskAddress& addr) const;

 private:
  struct Zone {
    int32_t first_cylinder;
    int32_t cylinder_count;
    int sectors_per_track;
    int64_t first_lbn;
    int64_t block_count;
  };

  const Zone& ZoneForLbn(int64_t lbn) const;
  const Zone& ZoneForCylinder(int32_t cylinder) const;

  DiskParams params_;
  std::vector<Zone> zones_;
  int64_t capacity_blocks_ = 0;
  double track_skew_frac_ = 0.0;
  double cylinder_skew_frac_ = 0.0;
};

}  // namespace mstk

#endif  // MSTK_SRC_DISK_DISK_GEOMETRY_H_
