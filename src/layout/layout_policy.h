// LayoutPolicy: the §5 placement strategies as a first-class, named family.
//
// A policy turns a LayoutSpec (device geometry + hot/cold pool sizes) into
// an ExtentLayout mapping the logical space [0, hot + cold) onto device
// LBNs: the hot pool (small, popular data) occupies logical [0, hot), the
// cold pool (large, sequential streams) logical [hot, hot + cold). Policies
// that understand MEMS tip parallelism express their placements against a
// LogicalRegionModel (src/layout/region_model.h) and additionally publish a
// hot-first region preference order, which the 2-D allocator mode
// (src/fs/allocator.h, AllocPolicy::kRegion2D) uses for region-local
// allocation.
//
// The paper's §5.3 layouts are policies:
//   simple       linear from LBN 0 (any device)
//   organ-pipe   hot pool centered at capacity/2, cold split around it
//                [VC90, RW91] (any device)
//   columnar     25 cylinder columns; hot center column, cold outer 20
//   subregioned  Fig 9's 5x5 grid; hot centermost cell, cold outer X bands
// tests/layout_property_test.cc pins every policy's extents at four pool
// sizes, so a change to any mapping fails it.
//
// The KAIST logical-model strategies (arXiv:0807.4580) extend the family:
//   region-seq   region-interleaved sequential: the logical space walks the
//                5x5 grid boustrophedon, so sequential data always crosses
//                into a 4-adjacent region (one-region stroke, no full-range
//                seek between consecutive chunks)
//   tiled        locality-preserving 2-D tiling: regions filled center-out
//                by (Chebyshev, Euclidean) distance — a 2-D organ pipe that
//                confines the hot set in X *and* Y
//   hot-cold     hot/cold region partitioning: the hot partition is the
//                smallest center-out region set that holds the hot pool
//                (adapts to the hot-set size); cold data streams through
//                the remaining regions in serpentine order
#ifndef MSTK_SRC_LAYOUT_LAYOUT_POLICY_H_
#define MSTK_SRC_LAYOUT_LAYOUT_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/layout/layout_map.h"
#include "src/layout/region_model.h"
#include "src/mems/geometry.h"

namespace mstk {

struct LayoutSpec {
  // Required for region-based policies; may be null for LBN-only policies
  // (simple, organ-pipe) when device_capacity_blocks is set.
  const MemsGeometry* geometry = nullptr;
  // Device capacity for LBN-only policies; defaults to the geometry's.
  int64_t device_capacity_blocks = 0;
  int64_t hot_blocks = 0;   // small, popular pool
  int64_t cold_blocks = 0;  // large, sequential pool

  int64_t capacity() const {
    return geometry != nullptr ? geometry->capacity_blocks() : device_capacity_blocks;
  }
};

class LayoutPolicy {
 public:
  virtual ~LayoutPolicy() = default;

  virtual const std::string& name() const = 0;

  // LBN-only policies (simple, organ-pipe) also apply to disks.
  virtual bool needs_mems_geometry() const { return true; }

  // Builds the logical-to-physical mapping for `spec`.
  [[nodiscard]] virtual ExtentLayout Build(const LayoutSpec& spec) const = 0;

  // The region grid this policy places against. LBN-only policies fall back
  // to a single full-device region.
  [[nodiscard]] virtual LogicalRegionModel Regions(const MemsGeometry& geometry) const;

  // Every region of `model`, most-preferred-for-hot-data first. The prefix
  // of this order is where the policy wants metadata and small files; the
  // 2-D allocator walks it for region-local allocation.
  [[nodiscard]] virtual std::vector<int32_t> HotRegionOrder(
      const LogicalRegionModel& model) const;
};

// All registered policies in fixed registration order (never hashed): the
// four paper layouts first, then the KAIST strategies. Safe to iterate in
// serializers.
const std::vector<const LayoutPolicy*>& AllLayoutPolicies();

// Case-sensitive lookup by name ("simple", "organ-pipe", "columnar",
// "subregioned", "region-seq", "tiled", "hot-cold"); nullptr when unknown.
const LayoutPolicy* FindLayoutPolicy(const std::string& name);

// "simple, organ-pipe, ..." for usage strings.
std::string LayoutPolicyNames();

}  // namespace mstk

#endif  // MSTK_SRC_LAYOUT_LAYOUT_POLICY_H_
