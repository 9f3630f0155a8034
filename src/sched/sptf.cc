#include "src/sched/sptf.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace mstk {

Request SptfScheduler::Pop(TimeMs now_ms) {
  assert(!pending_.empty());
  std::size_t best = 0;
  if (pending_.size() > 1) {
    pos_ms_.resize(pending_.size());
    device_->EstimatePositioningBatch(pending_.data(), size(), now_ms, pos_ms_.data());
    double best_cost = EffectiveCost(pending_[0], pos_ms_[0], now_ms);
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const double cost = EffectiveCost(pending_[i], pos_ms_[i], now_ms);
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
  }
  Request req = pending_[best];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
  return req;
}

double AgedSptfScheduler::EffectiveCost(const Request& req, TimeMs pos_ms,
                                        TimeMs now_ms) const {
  // Clamped at zero: unbounded negative aging would let one starved request
  // (and then every request, as they all age) swing the comparison by
  // arbitrary amounts; at the floor, selection falls back to FIFO among the
  // starved (first index wins ties), which is the starvation bound we want.
  return std::max(pos_ms - age_weight_ * (now_ms - req.arrival_ms), 0.0);
}

}  // namespace mstk
