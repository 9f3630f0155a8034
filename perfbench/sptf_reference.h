// Naive SPTF reference for the benchmark's exactness check.
//
// Pending requests are kept in arrival order; every Pop re-estimates all of
// them with the scalar EstimatePositioningMs and returns the first index of
// the minimum. Any faster SptfScheduler must dispatch the same request at
// every Pop, so a Driver stack built on it must produce the same completion
// stream, bit for bit.
#ifndef PERFBENCH_SPTF_REFERENCE_H_
#define PERFBENCH_SPTF_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"

namespace perfbench {

class ReferenceSptf final : public mstk::IoScheduler {
 public:
  // `last_index_wins_ties` perturbs the tie rule; the benchmark's tests use
  // it to show that the exactness check catches a changed selection order.
  explicit ReferenceSptf(const mstk::StorageDevice* device, bool last_index_wins_ties = false)
      : device_(device), last_index_wins_ties_(last_index_wins_ties) {}

  const char* name() const override { return "SPTF-reference"; }
  void Add(const mstk::Request& req) override { pending_.push_back(req); }
  bool Empty() const override { return pending_.empty(); }
  int64_t size() const override { return static_cast<int64_t>(pending_.size()); }

  mstk::Request Pop(mstk::TimeMs now_ms) override {
    std::size_t best = 0;
    double best_cost = device_->EstimatePositioningMs(pending_[0], now_ms);
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const double cost = device_->EstimatePositioningMs(pending_[i], now_ms);
      if (cost < best_cost || (last_index_wins_ties_ && !(cost > best_cost))) {
        best_cost = cost;
        best = i;
      }
    }
    const mstk::Request req = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    return req;
  }

  void Reset() override { pending_.clear(); }

 private:
  const mstk::StorageDevice* device_;
  bool last_index_wins_ties_;
  std::vector<mstk::Request> pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPTF_REFERENCE_H_
