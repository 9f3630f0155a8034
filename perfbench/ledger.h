// In-memory span ledger for the benchmark's traced run.
//
// Every span is recorded from the benchmark's own files, at a layer
// boundary the benchmark can see from outside the program: its calls into
// Simulator::Run / Driver::Submit / ArrayManager::Submit / the trace and
// workload functions, and the calls the program makes into the timing
// decorators (decorators.h) it was handed in place of a device or a
// scheduler. Spans stay in memory while the simulation runs and are written
// out once at the end, so recording is a clock read and a vector append.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kSimRun,        // benchmark call into Simulator::Run, or into trace::Replay
  kDriverSubmit,  // benchmark call into Driver::Submit
  kArraySubmit,   // benchmark call into ArrayManager::Submit
  kSchedAdd,      // IoScheduler::Add
  kSchedPop,      // IoScheduler::Pop
  kMemsEstimate,  // MEMS EstimatePositioningMs / EstimatePositioningBatch
  kMemsService,   // MEMS ServiceRequest
  kDiskEstimate,  // disk EstimatePositioningMs / EstimatePositioningBatch
  kDiskService,   // disk ServiceRequest
  kGenerate,      // request-stream or scenario generation
  kSerialize,     // trace::SerializeTrace
  kParse,         // trace::ParseTrace
  kRemap,         // trace::RemapToCapacity + trace::ToRequests
  kBuild,         // construction of devices, schedulers, array
};
inline constexpr int kSpanKinds = 14;

const char* SpanName(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t req_id = -1;  // request the span served, -1 when none
  int32_t parent = -1;  // index of the enclosing span, -1 at top level
  SpanKind kind = SpanKind::kSimRun;
};

class Ledger {
 public:
  struct KindTotals {
    int64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // duration minus the durations of direct children
  };

  void Reserve(size_t spans) { spans_.reserve(spans); }

  // Opens a span nested in the innermost open one; returns its index.
  int32_t Open(SpanKind kind, int64_t req_id = -1) {
    const auto index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{0, 0, req_id, open_, kind});
    open_ = index;
    spans_.back().start_ns = NowNs();
    return index;
  }
  // Closes span `index`, which must be the innermost open one.
  void Close(int32_t index) {
    const int64_t end = NowNs();
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = end;
    open_ = span.parent;
  }
  void SetRequest(int32_t index, int64_t req_id) {
    spans_[static_cast<size_t>(index)].req_id = req_id;
  }

  // Counts taken at the decorated boundaries.
  void CountPopDepth(int64_t depth) { pop_depths_.push_back(depth); }
  // Work items handled by one span of `kind`, e.g. requests per estimate.
  void CountItems(SpanKind kind, int64_t items) { items_[static_cast<size_t>(kind)] += items; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<int64_t>& pop_depths() const { return pop_depths_; }
  int64_t items(SpanKind kind) const { return items_[static_cast<size_t>(kind)]; }

  std::array<KindTotals, kSpanKinds> Totals() const;

  // Writes one tab-separated line per span: index, name, start and end
  // (ns, relative to the first span), parent index, request id.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  std::vector<int64_t> pop_depths_;
  std::array<int64_t, kSpanKinds> items_{};
};

// RAII span on an optional ledger: a null ledger records nothing, so the
// same call site serves the bare and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(Ledger* ledger, SpanKind kind, int64_t req_id = -1)
      : ledger_(ledger), index_(ledger != nullptr ? ledger->Open(kind, req_id) : -1) {}
  ~ScopedSpan() {
    if (ledger_ != nullptr) {
      ledger_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Ledger* ledger_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
