#include "src/core/metrics.h"

namespace mstk {

void MetricsCollector::RecordDispatch(const Request& req, TimeMs now_ms, int64_t queue_depth) {
  if (exclude_background_ && req.background) {
    return;
  }
  queue_time_.Add(now_ms - req.arrival_ms);
  queue_depth_.Add(static_cast<double>(queue_depth));
}

void MetricsCollector::RecordCompletion(const Request& req, TimeMs now_ms, double service_ms) {
  if (req.background) {
    fault_.CountRebuild(service_ms);
    if (exclude_background_) {
      return;
    }
  }
  const TimeMs response_ms = now_ms - req.arrival_ms;
  response_samples_.Add(response_ms);
  response_time_.Add(response_ms);
  service_time_.Add(service_ms);
  last_completion_ms_ = now_ms;
}

void MetricsCollector::RecordCompletion(const Request& req, TimeMs now_ms, double service_ms,
                                        const PhaseBreakdown& phases) {
  RecordCompletion(req, now_ms, service_ms);
  if (exclude_background_ && req.background) {
    return;
  }
  for (int i = 0; i < kPhaseCount; ++i) {
    phase_stats_[i].Add(phases.phase_ms[i]);
  }
}

}  // namespace mstk
