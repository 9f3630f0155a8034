#include "src/fault/remap.h"

#include <algorithm>
#include <cassert>

namespace mstk {

DefectRemapper::DefectRemapper(int64_t capacity_blocks, RemapStyle style,
                               int64_t spare_region_base)
    : capacity_blocks_(capacity_blocks),
      style_(style),
      spare_region_base_(spare_region_base) {
  assert(spare_region_base_ >= 0 && spare_region_base_ < capacity_blocks_);
}

bool DefectRemapper::MarkDefective(int64_t lbn) {
  assert(lbn >= 0 && lbn < capacity_blocks_);
  return defects_.insert(lbn).second;
}

void DefectRemapper::Map(int64_t lbn, int32_t blocks, std::vector<IoExtent>* out) const {
  assert(lbn >= 0 && blocks > 0);
  switch (style_) {
    case RemapStyle::kMemsSpareTip:
      // Spare-tip remapping is timing-transparent.
      out->push_back(IoExtent{lbn, blocks});
      return;

    case RemapStyle::kDiskSlip: {
      // Logical block i maps to the i-th non-defective physical block:
      // phys(i) = i + (#defects <= phys(i)), computed incrementally.
      int64_t phys = lbn;
      // Advance past defects at or below the starting position.
      for (auto it = defects_.begin(); it != defects_.end() && *it <= phys; ++it) {
        ++phys;
      }
      int64_t run_start = phys;
      int32_t remaining = blocks;
      auto next_defect = defects_.lower_bound(phys);
      while (remaining > 0) {
        const int64_t run_end =
            next_defect == defects_.end() ? capacity_blocks_ : *next_defect;
        const int64_t run = std::min<int64_t>(remaining, run_end - run_start);
        if (run > 0) {
          out->push_back(IoExtent{run_start, static_cast<int32_t>(run)});
          remaining -= static_cast<int32_t>(run);
          run_start += run;
        }
        if (remaining > 0) {
          assert(next_defect != defects_.end() && "slipped past device end");
          run_start = *next_defect + 1;
          ++next_defect;
        }
      }
      return;
    }

    case RemapStyle::kDiskSpareRegion: {
      // Defective blocks are redirected, one by one, into the spare region
      // (each defect gets a stable slot by its rank among defects).
      int64_t cursor = lbn;
      int32_t remaining = blocks;
      while (remaining > 0) {
        auto defect = defects_.lower_bound(cursor);
        const int64_t clean_end =
            (defect == defects_.end() || *defect >= cursor + remaining)
                ? cursor + remaining
                : *defect;
        if (clean_end > cursor) {
          out->push_back(IoExtent{cursor, static_cast<int32_t>(clean_end - cursor)});
          remaining -= static_cast<int32_t>(clean_end - cursor);
          cursor = clean_end;
        }
        if (remaining > 0) {
          // `cursor` is defective: redirect this single block.
          const int64_t rank =
              static_cast<int64_t>(std::distance(defects_.begin(), defects_.find(cursor)));
          out->push_back(IoExtent{spare_region_base_ + rank, 1});
          --remaining;
          ++cursor;
        }
      }
      return;
    }
  }
}

std::vector<Request> DefectRemapper::Apply(const std::vector<Request>& requests) const {
  std::vector<Request> mapped;
  mapped.reserve(requests.size());
  std::vector<IoExtent> extents;
  int64_t id = 0;
  for (const Request& req : requests) {
    extents.clear();
    Map(req.lbn, req.block_count, &extents);
    for (const IoExtent& extent : extents) {
      Request sub = req;
      sub.id = id++;
      sub.lbn = extent.lbn;
      sub.block_count = extent.blocks;
      mapped.push_back(sub);
    }
  }
  return mapped;
}

}  // namespace mstk
