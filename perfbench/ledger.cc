#include "ledger.h"

#include <cstdio>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kDriverSubmit: return "driver.submit";
    case SpanKind::kArraySubmit: return "array.submit";
    case SpanKind::kSchedAdd: return "sched.add";
    case SpanKind::kSchedPop: return "sched.pop";
    case SpanKind::kMemsEstimate: return "mems.estimate";
    case SpanKind::kMemsService: return "mems.service";
    case SpanKind::kDiskEstimate: return "disk.estimate";
    case SpanKind::kDiskService: return "disk.service";
    case SpanKind::kGenerate: return "workload.generate";
    case SpanKind::kSerialize: return "trace.serialize";
    case SpanKind::kParse: return "trace.parse";
    case SpanKind::kRemap: return "trace.remap";
    case SpanKind::kBuild: return "build";
  }
  return "?";
}

std::array<Ledger::KindTotals, kSpanKinds> Ledger::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::array<KindTotals, kSpanKinds> totals{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    KindTotals& t = totals[static_cast<size_t>(span.kind)];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

bool Ledger::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "index\tname\tstart_ns\tend_ns\tparent\treq_id\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%d\t%lld\n", i, SpanName(s.kind),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<long long>(s.req_id));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
