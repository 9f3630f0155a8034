#include "src/core/metrics.h"

namespace mstk {

void MetricsCollector::RecordDispatch(const Request& req, TimeMs now_ms, int64_t queue_depth) {
  if (exclude_background_ && req.background) {
    return;
  }
  const int n = pending_dispatches_;
  pending_queue_ms_[n] = now_ms - req.arrival_ms;
  pending_queue_depth_[n] = static_cast<double>(queue_depth);
  if ((pending_dispatches_ = n + 1) == kFlushChunk) {
    Flush();
  }
}

void MetricsCollector::RecordCompletion(const Request& req, TimeMs now_ms, double service_ms) {
  if (req.background) {
    fault_.rebuild_ios++;
    fault_.rebuild_ms += service_ms;
    if (exclude_background_) {
      return;
    }
  }
  const int n = pending_completions_;
  pending_response_ms_[n] = now_ms - req.arrival_ms;
  pending_service_ms_[n] = service_ms;
  last_completion_ms_ = now_ms;
  if ((pending_completions_ = n + 1) == kFlushChunk) {
    Flush();
  }
}

void MetricsCollector::RecordCompletion(const Request& req, TimeMs now_ms, double service_ms,
                                        const PhaseBreakdown& phases) {
  RecordCompletion(req, now_ms, service_ms);
  if (exclude_background_ && req.background) {
    return;
  }
  const int n = pending_phase_rows_;
  for (int i = 0; i < kPhaseCount; ++i) {
    pending_phase_ms_[i][n] = phases.phase_ms[i];
  }
  if ((pending_phase_rows_ = n + 1) == kFlushChunk) {
    Flush();
  }
}

// Drains row-interleaved, not column-at-a-time: each summary's Welford
// update is a serial chain through a divide, so folding one column to
// completion leaves the pipeline idle between elements. Interleaving the
// columns of a row keeps several independent chains in flight, which is
// where the batched layout's speed actually comes from. Per-summary value
// order is unchanged, so results stay bit-identical either way.
void MetricsCollector::Flush() const {
  if (pending_dispatches_ > 0) {
    for (int r = 0; r < pending_dispatches_; ++r) {
      queue_time_.Add(pending_queue_ms_[r]);
      queue_depth_.Add(pending_queue_depth_[r]);
    }
    pending_dispatches_ = 0;
  }
  if (pending_completions_ > 0) {
    response_samples_.AddBatch(pending_response_ms_, pending_completions_);
    for (int r = 0; r < pending_completions_; ++r) {
      response_time_.Add(pending_response_ms_[r]);
      service_time_.Add(pending_service_ms_[r]);
    }
    pending_completions_ = 0;
  }
  if (pending_phase_rows_ > 0) {
    for (int r = 0; r < pending_phase_rows_; ++r) {
      for (int i = 0; i < kPhaseCount; ++i) {
        phase_stats_[i].Add(pending_phase_ms_[i][r]);
      }
    }
    pending_phase_rows_ = 0;
  }
}

}  // namespace mstk
