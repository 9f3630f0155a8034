// Seeded online fault injector: the concrete FaultModel behind the driver's
// §6 recovery path.
//
// Each dispatch attempt draws from a per-trial xoshiro256++ stream (seeded
// from the SplitMix64 trial seed), so fault arrivals are deterministic per
// trial and independent of how trials are spread across worker threads.
// Permanent failures route through DefectRemapper: with kMemsSpareTip the
// remapped extent maps identity (same tip sector on a spare tip — the
// §6.1.1 timing-transparency property); disk styles split requests at the
// slip/spare-region discontinuity, which the driver services back-to-back.
#ifndef MSTK_SRC_FAULT_INJECTOR_H_
#define MSTK_SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/fault_model.h"
#include "src/fault/remap.h"
#include "src/sim/rng.h"

namespace mstk {

struct FaultInjectorConfig {
  // Per-attempt probabilities, judged in this order (first hit wins):
  // permanent (first attempt only), transient, lost completion.
  double transient_rate = 0.0;
  double permanent_rate = 0.0;
  double lost_completion_rate = 0.0;
  // Spare regions available before the device degrades.
  int64_t spares = 64;
  RemapStyle remap_style = RemapStyle::kMemsSpareTip;
  // Start of the kDiskSpareRegion area; < 0 means "last 4096 blocks".
  int64_t spare_region_base = -1;
};

class FaultInjector : public FaultModel {
 public:
  FaultInjector(const FaultInjectorConfig& config, int64_t capacity_blocks,
                uint64_t seed);

  FaultType JudgeAttempt(const Request& req, int attempt) override;
  bool OnPermanentFault(const Request& req) override;
  void MapPhysical(int64_t lbn, int32_t blocks,
                   std::vector<IoExtent>* out) const override;
  bool degraded() const override { return degraded_; }

  int64_t spares_left() const { return spares_left_; }

 private:
  FaultInjectorConfig config_;
  DefectRemapper remapper_;
  Rng rng_;
  int64_t spares_left_;
  bool degraded_ = false;
};

}  // namespace mstk

#endif  // MSTK_SRC_FAULT_INJECTOR_H_
