#include "src/layout/layout_map.h"

#include <cassert>

#include "src/sim/check.h"

namespace mstk {

void ExtentLayout::Append(int64_t phys_lbn, int64_t blocks) {
  assert(blocks > 0);
  if (!extents_.empty()) {
    Entry& last = extents_.back();
    if (last.phys_base + last.blocks == phys_lbn) {
      last.blocks += blocks;
      total_blocks_ += blocks;
      return;
    }
  }
  extents_.push_back(Entry{total_blocks_, phys_lbn, blocks});
  total_blocks_ += blocks;
}

size_t ExtentLayout::FindEntry(int64_t logical_lbn) const {
  // Binary search for the extent containing logical_lbn.
  size_t lo = 0;
  size_t hi = extents_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi + 1) / 2;
    if (extents_[mid].logical_base <= logical_lbn) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

int64_t ExtentLayout::MapBlock(int64_t logical_lbn) const {
  MSTK_CHECK(logical_lbn >= 0 && logical_lbn < total_blocks_,
             "logical block beyond layout capacity");
  const Entry& e = extents_[FindEntry(logical_lbn)];
  return e.phys_base + (logical_lbn - e.logical_base);
}

std::vector<PhysExtent> ExtentLayout::MapExtent(int64_t logical_lbn, int32_t blocks) const {
  MSTK_CHECK(logical_lbn >= 0 && blocks > 0, "bad logical extent");
  MSTK_CHECK(logical_lbn + blocks <= total_blocks_,
             "logical extent beyond layout capacity");
  const size_t lo = FindEntry(logical_lbn);
  std::vector<PhysExtent> result;
  int64_t remaining = blocks;
  int64_t cursor = logical_lbn;
  for (size_t i = lo; remaining > 0; ++i) {
    MSTK_CHECK(i < extents_.size(), "extent walk overran layout table");
    const Entry& e = extents_[i];
    const int64_t off = cursor - e.logical_base;
    const int64_t run = std::min(remaining, e.blocks - off);
    result.push_back(PhysExtent{e.phys_base + off, static_cast<int32_t>(run)});
    remaining -= run;
    cursor += run;
  }
  return result;
}

std::vector<Request> ApplyLayout(const ExtentLayout& layout, const std::vector<Request>& requests) {
  std::vector<Request> mapped;
  mapped.reserve(requests.size());
  int64_t id = 0;
  for (const Request& req : requests) {
    if (req.block_count == 1) {
      // Single-block fast path: no per-request vector allocation.
      Request sub = req;
      sub.id = id++;
      sub.lbn = layout.MapBlock(req.lbn);
      mapped.push_back(sub);
      continue;
    }
    for (const PhysExtent& extent : layout.MapExtent(req.lbn, req.block_count)) {
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
