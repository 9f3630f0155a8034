// Timing decorators for the traced run.
//
// The program accepts a StorageDevice or an IoScheduler wherever it builds a
// stack (Driver, SptfScheduler(device), the ArrayManager devices and
// scheduler factory, trace::Replay). The traced run hands it these
// wrappers instead: each forwards every virtual of the interface to the real
// object and records a span around the calls that do work. The bare run
// passes the real objects, so the end-to-end numbers carry no wrapper cost.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstring>
#include <memory>
#include <utility>

#include "ledger.h"
#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"

namespace perfbench {

class TimedDevice final : public mstk::StorageDevice {
 public:
  // `inner` and `ledger` are borrowed and must outlive the wrapper.
  TimedDevice(mstk::StorageDevice* inner, Ledger* ledger)
      : inner_(inner),
        ledger_(ledger),
        is_disk_(std::strcmp(inner->name(), "disk") == 0) {
    activity_ = inner_->activity();
  }

  const char* name() const override { return inner_->name(); }
  int64_t CapacityBlocks() const override { return inner_->CapacityBlocks(); }

  [[nodiscard]] double ServiceRequest(const mstk::Request& req, mstk::TimeMs start_ms,
                                      mstk::ServiceBreakdown* breakdown) override {
    const int32_t span =
        ledger_->Open(is_disk_ ? SpanKind::kDiskService : SpanKind::kMemsService, req.id);
    const double ms = inner_->ServiceRequest(req, start_ms, breakdown);
    ledger_->Close(span);
    // activity() is not virtual: mirror the inner counters so callers that
    // read them through the wrapper (trace::Replay) see the real values.
    activity_ = inner_->activity();
    return ms;
  }

  [[nodiscard]] mstk::TimeMs EstimatePositioningMs(const mstk::Request& req,
                                                   mstk::TimeMs at_ms) const override {
    const int32_t span = ledger_->Open(EstimateKind(), req.id);
    const mstk::TimeMs ms = inner_->EstimatePositioningMs(req, at_ms);
    ledger_->Close(span);
    ledger_->CountItems(EstimateKind(), 1);
    return ms;
  }

  void EstimatePositioningBatch(const mstk::Request* reqs, int64_t count, mstk::TimeMs at_ms,
                                mstk::TimeMs* out_ms) const override {
    const int32_t span = ledger_->Open(EstimateKind());
    inner_->EstimatePositioningBatch(reqs, count, at_ms, out_ms);
    ledger_->Close(span);
    ledger_->CountItems(EstimateKind(), count);
  }

  uint64_t StateEpoch() const override { return inner_->StateEpoch(); }
  bool PositioningIsTimeFree() const override { return inner_->PositioningIsTimeFree(); }
  [[nodiscard]] mstk::TimeMs DegradedPenaltyMs() const override {
    return inner_->DegradedPenaltyMs();
  }

  void Reset() override {
    inner_->Reset();
    activity_ = inner_->activity();
  }

 private:
  SpanKind EstimateKind() const {
    return is_disk_ ? SpanKind::kDiskEstimate : SpanKind::kMemsEstimate;
  }

  mstk::StorageDevice* inner_;
  Ledger* ledger_;
  bool is_disk_;
};

class TimedScheduler final : public mstk::IoScheduler {
 public:
  TimedScheduler(std::unique_ptr<mstk::IoScheduler> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }

  void Add(const mstk::Request& req) override {
    const int32_t span = ledger_->Open(SpanKind::kSchedAdd, req.id);
    inner_->Add(req);
    ledger_->Close(span);
  }

  bool Empty() const override { return inner_->Empty(); }
  int64_t size() const override { return inner_->size(); }

  mstk::Request Pop(mstk::TimeMs now_ms) override {
    ledger_->CountPopDepth(inner_->size());
    const int32_t span = ledger_->Open(SpanKind::kSchedPop);
    mstk::Request req = inner_->Pop(now_ms);
    ledger_->Close(span);
    ledger_->SetRequest(span, req.id);
    return req;
  }

  bool PassThroughWhenEmpty() const override { return inner_->PassThroughWhenEmpty(); }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<mstk::IoScheduler> inner_;
  Ledger* ledger_;
};

// Failure-injection wrapper for the benchmark's own tests: silently drops
// the `drop_at`-th added request, so it never reaches the device and never
// completes. A run with it must report failed operations and exit non-zero.
class LosingScheduler final : public mstk::IoScheduler {
 public:
  LosingScheduler(std::unique_ptr<mstk::IoScheduler> inner, int64_t drop_at)
      : inner_(std::move(inner)), drop_at_(drop_at) {}

  const char* name() const override { return inner_->name(); }
  void Add(const mstk::Request& req) override {
    if (adds_++ != drop_at_) {
      inner_->Add(req);
    }
  }
  bool Empty() const override { return inner_->Empty(); }
  int64_t size() const override { return inner_->size(); }
  mstk::Request Pop(mstk::TimeMs now_ms) override { return inner_->Pop(now_ms); }
  // Every request goes through Add, so the drop cannot be skipped by the
  // driver's idle fast path.
  bool PassThroughWhenEmpty() const override { return false; }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<mstk::IoScheduler> inner_;
  int64_t drop_at_;
  int64_t adds_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
