// Defect remapping strategies and their performance impact (§6.1.1).
//
// Disks handle unrecoverable media defects by slipping LBNs past the bad
// sector or remapping them to a spare region, both of which break physical
// sequentiality. MEMS-based storage can remap a damaged tip region to the
// *same tip sector on a spare tip*, so the remapped sector is accessed at
// exactly the same time as the original would have been — no timing change.
#ifndef MSTK_SRC_FAULT_REMAP_H_
#define MSTK_SRC_FAULT_REMAP_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/core/fault_model.h"
#include "src/core/request.h"

namespace mstk {

enum class RemapStyle {
  kMemsSpareTip,    // same-tip-sector spare: identity timing
  kDiskSlip,        // logical blocks slip past defects
  kDiskSpareRegion  // defective blocks redirected to a distant spare region
};

class DefectRemapper {
 public:
  // `spare_region_base` is where kDiskSpareRegion redirects defective
  // blocks (typically the end of the device).
  DefectRemapper(int64_t capacity_blocks, RemapStyle style, int64_t spare_region_base);

  // Marks a (physical, pre-slip) block defective. Returns false if it was
  // already marked.
  bool MarkDefective(int64_t lbn);

  int64_t defect_count() const { return static_cast<int64_t>(defects_.size()); }
  RemapStyle style() const { return style_; }

  // Appends the physical extents actually accessed for a logical extent to
  // `out`, in logical order.
  void Map(int64_t lbn, int32_t blocks, std::vector<IoExtent>* out) const;

  // Remaps a request stream (splitting requests at discontinuities).
  std::vector<Request> Apply(const std::vector<Request>& requests) const;

 private:
  int64_t capacity_blocks_;
  RemapStyle style_;
  int64_t spare_region_base_;
  std::set<int64_t> defects_;
};

}  // namespace mstk

#endif  // MSTK_SRC_FAULT_REMAP_H_
