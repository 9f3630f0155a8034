// Request-merging decorator: the OS elevator's coalescing stage. Adjacent
// pending requests of the same type are merged into one larger request
// before reaching the underlying scheduling policy — sequential streams
// become single large transfers, which matters on both device types
// (fewer positioning episodes; §2.4.11's sequential-stream emphasis).
//
// Back-merges (new request extends a pending one's tail) and front-merges
// (new request ends where a pending one starts) are both supported, with a
// configurable cap on the merged size.
#ifndef MSTK_SRC_SCHED_MERGING_H_
#define MSTK_SRC_SCHED_MERGING_H_

#include <cstdint>
#include <map>

#include "src/core/io_scheduler.h"

namespace mstk {

class MergingScheduler : public IoScheduler {
 public:
  // `inner` is borrowed; it sees only the merged requests.
  MergingScheduler(IoScheduler* inner, int32_t max_merged_blocks = 2048)
      : inner_(inner), max_merged_blocks_(max_merged_blocks) {}

  const char* name() const override { return "merging"; }
  void Add(const Request& req) override;
  bool Empty() const override;
  int64_t size() const override;
  Request Pop(TimeMs now_ms) override;
  void Reset() override;

  int64_t merges() const { return merges_; }

 private:
  void FlushToInner();

  IoScheduler* inner_;
  int32_t max_merged_blocks_;
  // Pending requests staged for merging, keyed by start LBN. Requests move
  // to the inner scheduler lazily on Pop, which gives arrivals the longest
  // window to coalesce (a simple "plugging" model).
  std::map<int64_t, Request> staged_;
  std::map<int64_t, int64_t> by_end_;  // end LBN (exclusive) -> start LBN
  int64_t merges_ = 0;
};

}  // namespace mstk

#endif  // MSTK_SRC_SCHED_MERGING_H_
