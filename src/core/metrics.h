// Per-run metrics collection: the measurements Figs 5-8 report.
//
// Each dispatch and completion is folded into its Welford summaries, and
// each response into the exact sample set, as it is recorded, so every
// reader sees every record so far.
#ifndef MSTK_SRC_CORE_METRICS_H_
#define MSTK_SRC_CORE_METRICS_H_

#include <cstdint>
#include <vector>

#include "src/core/request.h"
#include "src/core/storage_device.h"
#include "src/sim/stats.h"
#include "src/sim/units.h"

namespace mstk {

// Recovery-path accounting (§6): filled by the driver's fault machinery and
// by completion bookkeeping for background rebuild traffic. All-zero when no
// fault model is attached.
struct FaultCounters {
  int64_t transient_errors = 0;   // injected transient read errors observed
  int64_t timeouts = 0;           // lost completions recovered by the watchdog
  int64_t retries = 0;            // re-dispatched attempts (any fault type)
  int64_t permanent_faults = 0;   // new permanent tip/sector failures
  int64_t remaps = 0;             // permanent faults remapped onto spares
  int64_t failed_requests = 0;    // retry budget exhausted; completed failed
  int64_t rebuild_ios = 0;        // background rebuild requests completed
  TimeMs rebuild_ms = 0.0;        // device time spent on rebuild I/O
  TimeMs degraded_ms = 0.0;       // degraded-mode surcharge paid by requests

  // Books one completed background (rebuild) request.
  void CountRebuild(TimeMs service_ms) {
    rebuild_ios++;
    rebuild_ms += service_ms;
  }
};

class MetricsCollector {
 public:
  // Called by the driver.
  void RecordDispatch(const Request& req, TimeMs now_ms, int64_t queue_depth);
  void RecordCompletion(const Request& req, TimeMs now_ms, TimeMs service_ms);
  // As above, also folding the request's per-phase timings into the phase
  // summaries. The driver always uses this form; the three-argument overload
  // (no phase information available) leaves the phase summaries untouched.
  void RecordCompletion(const Request& req, TimeMs now_ms, TimeMs service_ms,
                        const PhaseBreakdown& phases);

  // Response time = queue time + service time (the Fig 5a/6a metric).
  const SummaryStats& response_time() const { return response_time_; }
  // Service time alone.
  const SummaryStats& service_time() const { return service_time_; }
  // Queue time alone.
  const SummaryStats& queue_time() const { return queue_time_; }
  // Queue depth observed at each dispatch.
  const SummaryStats& queue_depth() const { return queue_depth_; }
  // Per-phase time across completed requests (ms per request).
  const SummaryStats& phase(Phase p) const { return phase_stats_[static_cast<int>(p)]; }

  // sigma^2/mu^2 of response time (the Fig 5b/6b starvation metric).
  double ResponseScv() const { return response_time_.SquaredCoefficientOfVariation(); }

  // Exact response-time quantile (e.g. 0.99 for tail latency).
  double ResponseQuantile(double q) { return response_samples_.Quantile(q); }

  int64_t completed() const { return response_time_.count(); }
  TimeMs last_completion_ms() const { return last_completion_ms_; }

  // Fault-recovery accounting. The driver writes through the mutable
  // accessor on its recovery path.
  FaultCounters& fault() { return fault_; }
  const FaultCounters& fault() const { return fault_; }

  // When enabled, background requests (rebuilds) are excluded from the
  // response/service/queue summaries — they only feed the rebuild counters —
  // so fault experiments report foreground latency. Off by default: plain
  // harnesses keep counting everything, as they always did.
  void set_exclude_background(bool exclude) { exclude_background_ = exclude; }

 private:
  SummaryStats response_time_;
  SummaryStats service_time_;
  SummaryStats queue_time_;
  SummaryStats queue_depth_;
  SummaryStats phase_stats_[kPhaseCount];
  SampleSet response_samples_;
  TimeMs last_completion_ms_ = 0.0;
  FaultCounters fault_;
  bool exclude_background_ = false;
};

}  // namespace mstk

#endif  // MSTK_SRC_CORE_METRICS_H_
