// Data placement (§5): mappings from a logical block space (what a file
// system or database sees) onto device LBNs.
//
// Layouts are expressed as ordered physical extents; a logical extent
// translates into one or more physical extents (more than one when it
// straddles a placement boundary).
#ifndef MSTK_SRC_LAYOUT_LAYOUT_MAP_H_
#define MSTK_SRC_LAYOUT_LAYOUT_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/request.h"

namespace mstk {

struct PhysExtent {
  int64_t lbn = 0;
  int32_t blocks = 0;

  friend bool operator==(const PhysExtent&, const PhysExtent&) = default;
};

// A layout built from an explicit ordered list of physical extents; logical
// block i lives at offset i along the concatenated extents.
class ExtentLayout {
 public:
  explicit ExtentLayout(std::string name) : name_(std::move(name)) {}

  // Appends `blocks` physical blocks starting at `phys_lbn` to the logical
  // space. Adjacent compatible extents are coalesced.
  void Append(int64_t phys_lbn, int64_t blocks);

  const std::string& name() const { return name_; }
  // Number of logical blocks this layout can map.
  int64_t logical_capacity() const { return total_blocks_; }
  // Translates a logical extent into physical extents, in logical order.
  [[nodiscard]] std::vector<PhysExtent> MapExtent(int64_t logical_lbn, int32_t blocks) const;
  // Translates a single logical block without the vector allocation (the
  // per-request hot path of ApplyLayout): one binary search, shared with
  // MapExtent.
  [[nodiscard]] int64_t MapBlock(int64_t logical_lbn) const;

  int64_t extent_count() const { return static_cast<int64_t>(extents_.size()); }

 private:
  struct Entry {
    int64_t logical_base;
    int64_t phys_base;
    int64_t blocks;
  };

  // Index of the entry containing `logical_lbn` (binary search over
  // logical_base, O(log n) for any extent count).
  size_t FindEntry(int64_t logical_lbn) const;

  std::string name_;
  std::vector<Entry> extents_;
  int64_t total_blocks_ = 0;
};

// Remaps a request stream through a layout, splitting requests whose mapped
// extents are discontiguous. Sub-requests share the original arrival time.
std::vector<Request> ApplyLayout(const ExtentLayout& layout, const std::vector<Request>& requests);

}  // namespace mstk

#endif  // MSTK_SRC_LAYOUT_LAYOUT_MAP_H_
