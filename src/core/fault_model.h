// Online fault model consulted by the driver's dispatch path (§6).
//
// The driver is fault-library-agnostic: it asks an abstract FaultModel what
// happens to each dispatch attempt and how logical extents map onto the
// physical media after defects were remapped. The concrete implementation
// (src/fault FaultInjector: seeded fault streams + DefectRemapper routing +
// spare-pool accounting) lives above this interface, so src/core keeps no
// dependency on src/fault.
#ifndef MSTK_SRC_CORE_FAULT_MODEL_H_
#define MSTK_SRC_CORE_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/core/request.h"

namespace mstk {

// Fate of one dispatch attempt, decided at dispatch time.
enum class FaultType {
  kNone,              // the attempt completes normally
  kTransientError,    // media read error: the access happens, then fails
  kLostCompletion,    // the device goes quiet; only a host timeout recovers
  kPermanentFailure,  // a new permanent tip/sector failure under the extent
};

// A contiguous physical extent (mirrors layout's PhysExtent without the
// dependency).
struct IoExtent {
  int64_t lbn = 0;
  int32_t blocks = 0;

  friend bool operator==(const IoExtent&, const IoExtent&) = default;
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  // Decides the fate of dispatch attempt `attempt` (0-based) of `req`.
  // Called once per attempt, in virtual-time order — implementations may
  // draw from a seeded RNG stream.
  virtual FaultType JudgeAttempt(const Request& req, int attempt) = 0;

  // Handles a permanent media failure under `req`: records the defect and
  // consumes a spare. Returns true when the region was remapped onto a
  // spare; false means spares are exhausted and the device is degraded.
  virtual bool OnPermanentFault(const Request& req) = 0;

  // Appends the physical extents currently backing [lbn, lbn+blocks) to
  // `out` (identity for undamaged media; spare-tip remapping keeps identity
  // too — the §6.1.1 timing-transparency property).
  virtual void MapPhysical(int64_t lbn, int32_t blocks,
                           std::vector<IoExtent>* out) const = 0;

  // True once spares ran out: the driver charges the device's degraded-mode
  // penalty on every subsequent attempt.
  virtual bool degraded() const = 0;
};

}  // namespace mstk

#endif  // MSTK_SRC_CORE_FAULT_MODEL_H_
