#include "src/fault/injector.h"

namespace mstk {

namespace {

int64_t ResolveSpareRegionBase(const FaultInjectorConfig& config,
                               int64_t capacity_blocks) {
  if (config.spare_region_base >= 0) {
    return config.spare_region_base;
  }
  const int64_t base = capacity_blocks - 4096;
  return base > 0 ? base : 0;
}

}  // namespace

FaultInjector::FaultInjector(const FaultInjectorConfig& config,
                             int64_t capacity_blocks, uint64_t seed)
    : config_(config),
      remapper_(capacity_blocks, config.remap_style,
                ResolveSpareRegionBase(config, capacity_blocks)),
      rng_(seed),
      spares_left_(config.spares) {}

FaultType FaultInjector::JudgeAttempt(const Request& req, int attempt) {
  (void)req;
  // Fixed draw order keeps the stream deterministic regardless of which
  // fault fires: short-circuiting on the first hit means later rates are
  // only consulted when earlier ones missed, which is still a deterministic
  // function of the stream position.
  if (attempt == 0 && config_.permanent_rate > 0.0 &&
      rng_.Bernoulli(config_.permanent_rate)) {
    return FaultType::kPermanentFailure;
  }
  if (config_.transient_rate > 0.0 && rng_.Bernoulli(config_.transient_rate)) {
    return FaultType::kTransientError;
  }
  if (config_.lost_completion_rate > 0.0 &&
      rng_.Bernoulli(config_.lost_completion_rate)) {
    return FaultType::kLostCompletion;
  }
  return FaultType::kNone;
}

bool FaultInjector::OnPermanentFault(const Request& req) {
  remapper_.MarkDefective(req.lbn);
  if (spares_left_ > 0) {
    --spares_left_;
    return true;
  }
  degraded_ = true;
  return false;
}

void FaultInjector::MapPhysical(int64_t lbn, int32_t blocks,
                                std::vector<IoExtent>* out) const {
  remapper_.Map(lbn, blocks, out);
}

}  // namespace mstk
