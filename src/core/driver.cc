#include "src/core/driver.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mstk {

namespace {

// Trace-viewer reserved color per phase (cname values Perfetto and
// chrome://tracing both understand).
const char* PhaseColor(Phase p) {
  switch (p) {
    case Phase::kQueue: return "grey";
    case Phase::kSeekX: return "thread_state_runnable";
    case Phase::kSeekY: return "thread_state_running";
    case Phase::kSettle: return "bad";
    case Phase::kTurnaround: return "terrible";
    case Phase::kTransfer: return "good";
    case Phase::kOverhead: return "black";
    case Phase::kFault: return "yellow";
  }
  return "grey";
}

// Service phases in the order their slices are laid out under the request
// slice: fault recovery (retries happened before the successful attempt),
// then dispatch penalty/overheads, then positioning, then transfer.
constexpr Phase kSlicePhaseOrder[] = {Phase::kFault,      Phase::kOverhead,
                                      Phase::kSeekX,      Phase::kSettle,
                                      Phase::kSeekY,      Phase::kTurnaround,
                                      Phase::kTransfer};

}  // namespace

Driver::Driver(Simulator* sim, StorageDevice* device, IoScheduler* scheduler,
               MetricsCollector* metrics)
    : sim_(sim),
      device_(device),
      scheduler_(scheduler),
      metrics_(metrics),
      fault_(metrics != nullptr ? &metrics->fault() : &own_fault_),
      pass_through_ok_(scheduler->PassThroughWhenEmpty()) {}

void Driver::Submit(const Request& req) {
  // Fast path: device free and nothing queued — the scheduler has declared
  // Add-then-Pop on an empty queue a pure pass-through, so skip the queue
  // round-trip. Falls back to the full path when tracing (it emits
  // per-transition queue counters).
  if (!busy_ && pass_through_ok_ && !trace_.enabled() && scheduler_->Empty()) {
    for (const auto& listener : on_active_) {
      listener(sim_->NowMs());
    }
    const TimeMs now = sim_->NowMs();
    if (metrics_ != nullptr) {
      metrics_->RecordDispatch(req, now, /*queue_depth=*/1);
    }
    const double penalty = pending_penalty_ms_;
    pending_penalty_ms_ = 0.0;
    busy_ = true;
    StartAttempt(req, /*attempt=*/0, /*fault_ms=*/0.0, penalty, now);
    return;
  }
  scheduler_->Add(req);
  trace_.Counter("queue_depth", sim_->NowMs(),
                 static_cast<double>(scheduler_->size()));
  TryDispatch();
}

void Driver::EmitRequestTrace(const Request& req, TimeMs dispatch_ms,
                              TimeMs service_ms,
                              const PhaseBreakdown& phases) const {
  // Parent slice spans [dispatch, completion]; phase slices tile it in
  // canonical order (their durations sum to the service time) and nest
  // under it in the viewer.
  std::vector<std::pair<std::string, double>> args = {
      {"lbn", static_cast<double>(req.lbn)},
      {"blocks", static_cast<double>(req.block_count)},
      {"queue_ms", phases[Phase::kQueue]}};
  if (phases[Phase::kFault] > 0.0) {
    args.emplace_back("fault_ms", phases[Phase::kFault]);
  }
  // Build the label via append (not `const char* + std::string&&`), which
  // also dodges GCC 12's bogus -Wrestrict on the inlined operator+ path.
  std::string label("r");
  label += std::to_string(req.id);
  trace_.Slice(label, dispatch_ms, service_ms, {}, std::move(args));
  TimeMs cursor = dispatch_ms;
  for (const Phase p : kSlicePhaseOrder) {
    const double dur = phases[p];
    if (dur > 0.0) {
      trace_.Slice(PhaseName(p), cursor, dur, PhaseColor(p));
      cursor += dur;
    }
  }
}

void Driver::TryDispatch() {
  if (busy_ || scheduler_->Empty()) {
    return;
  }
  for (const auto& listener : on_active_) {
    listener(sim_->NowMs());
  }
  const int64_t depth = scheduler_->size();
  const TimeMs now = sim_->NowMs();
  const Request req = scheduler_->Pop(now);
  if (metrics_ != nullptr) {
    metrics_->RecordDispatch(req, now, depth);
  }
  trace_.Counter("queue_depth", now, static_cast<double>(scheduler_->size()));

  const double penalty = pending_penalty_ms_;
  pending_penalty_ms_ = 0.0;
  busy_ = true;
  StartAttempt(req, /*attempt=*/0, /*fault_ms=*/0.0, penalty, now);
}

TimeMs Driver::ServiceAttempt(const Request& req, TimeMs start_ms,
                              ServiceBreakdown* bd) {
  if (fault_model_ == nullptr || req.background) {
    const double ms = device_->ServiceRequest(req, start_ms, bd);
    bd->EnsurePhases();
    return ms;
  }
  // Route the logical extent through the current defect map. Undamaged (and
  // spare-tip-remapped, §6.1.1) media maps identity, so the common case is a
  // single extent equal to the request and services exactly like the plain
  // path; slip/spare-region remapping splits into sub-extents serviced
  // back-to-back.
  extents_.clear();
  fault_model_->MapPhysical(req.lbn, req.block_count, &extents_);
  if (extents_.size() == 1 && extents_[0].lbn == req.lbn &&
      extents_[0].blocks == req.block_count) {
    const double ms = device_->ServiceRequest(req, start_ms, bd);
    bd->EnsurePhases();
    return ms;
  }
  double total = 0.0;
  for (const IoExtent& e : extents_) {
    Request sub = req;
    sub.lbn = e.lbn;
    sub.block_count = e.blocks;
    ServiceBreakdown part;
    const double ms = device_->ServiceRequest(sub, start_ms + total, &part);
    part.EnsurePhases();
    total += ms;
    for (int i = 0; i < kPhaseCount; ++i) {
      bd->phases.phase_ms[i] += part.phases.phase_ms[i];
    }
  }
  return total;
}

void Driver::StartAttempt(const Request& req, int attempt, double fault_ms,
                          double penalty_ms, TimeMs dispatch_ms) {
  const TimeMs now = sim_->NowMs();
  ServiceBreakdown bd;
  const double service_ms = penalty_ms + ServiceAttempt(req, now + penalty_ms, &bd);
  bd.phases[Phase::kOverhead] += penalty_ms;

  double attempt_ms = service_ms;
  if (fault_model_ != nullptr && !req.background && fault_model_->degraded()) {
    // Spares exhausted: every access pays the device's degraded-mode
    // surcharge (masked-tip extra row pass on MEMS, broken sequentiality on
    // disk).
    const double extra = device_->DegradedPenaltyMs();
    attempt_ms += extra;
    bd.phases[Phase::kFault] += extra;
    fault_->degraded_ms += extra;
  }

  FaultType fate = FaultType::kNone;
  if (fault_model_ != nullptr && !req.background) {
    fate = fault_model_->JudgeAttempt(req, attempt);
  }

  if (fate == FaultType::kNone) {
    bd.phases[Phase::kQueue] = dispatch_ms - req.arrival_ms;
    bd.phases[Phase::kFault] += fault_ms;
    inflight_.req = req;
    inflight_.dispatch_ms = dispatch_ms;
    inflight_.total_ms = fault_ms + attempt_ms;
    inflight_.phases = bd.phases;
    sim_->ScheduleAfter(attempt_ms, [this] { Complete(); });
    return;
  }

  // The attempt failed. The device time it burned — plus any wait beyond it
  // (watchdog timeout, retry backoff) — becomes fault time for whatever
  // attempt finally completes the request.
  double extra_wait = 0.0;
  switch (fate) {
    case FaultType::kTransientError:
      fault_->transient_errors++;
      break;
    case FaultType::kLostCompletion:
      // The access happened but its completion never arrives; the host
      // watchdog fires at timeout_ms after dispatch of this attempt.
      fault_->timeouts++;
      extra_wait = std::max(0.0, recovery_.timeout_ms - attempt_ms);
      break;
    case FaultType::kPermanentFailure:
      fault_->permanent_faults++;
      if (fault_model_->OnPermanentFault(req)) {
        fault_->remaps++;
        if (rebuild_sink_) {
          rebuild_sink_(req.lbn, req.block_count);
        }
      } else if (degraded_sink_ && !degraded_notified_ && fault_model_->degraded()) {
        degraded_notified_ = true;
        degraded_sink_(sim_->NowMs());
      }
      break;
    case FaultType::kNone:
      break;
  }

  if (attempt >= recovery_.max_retries) {
    // Retry budget exhausted: complete the request marked failed so the
    // workload can observe the error (and metrics count it).
    fault_->failed_requests++;
    bd.phases[Phase::kQueue] = dispatch_ms - req.arrival_ms;
    bd.phases[Phase::kFault] += fault_ms + extra_wait;
    inflight_.req = req;
    inflight_.req.failed = true;
    inflight_.dispatch_ms = dispatch_ms;
    inflight_.total_ms = fault_ms + attempt_ms + extra_wait;
    inflight_.phases = bd.phases;
    sim_->ScheduleAfter(attempt_ms + extra_wait, [this] { Complete(); });
    return;
  }

  fault_->retries++;
  double backoff = 0.0;
  if (fate != FaultType::kLostCompletion) {
    // Linear backoff between retries; lost completions already waited out
    // the watchdog timeout.
    backoff = recovery_.retry_backoff_ms * static_cast<double>(attempt + 1);
  }
  const double wait = attempt_ms + extra_wait + backoff;
  inflight_.req = req;
  inflight_.attempt = attempt;
  inflight_.fault_ms = fault_ms;
  inflight_.wait_ms = wait;
  inflight_.dispatch_ms = dispatch_ms;
  sim_->ScheduleAfter(wait, [this] {
    // Copy the retry arguments out of inflight_ before StartAttempt
    // repopulates it for the next pending event.
    StartAttempt(inflight_.req, inflight_.attempt + 1,
                 inflight_.fault_ms + inflight_.wait_ms, /*penalty_ms=*/0.0,
                 inflight_.dispatch_ms);
  });
}

void Driver::Complete() {
  // Metrics and trace read inflight_ in place — nothing re-enters the
  // driver before the listener loop. Listeners may Submit() and re-dispatch
  // synchronously, repopulating inflight_, so copy the request for them.
  busy_ = false;
  if (metrics_ != nullptr) {
    metrics_->RecordCompletion(inflight_.req, sim_->NowMs(), inflight_.total_ms,
                               inflight_.phases);
  } else if (inflight_.req.background) {
    own_fault_.CountRebuild(inflight_.total_ms);
  }
  if (trace_.enabled()) {
    EmitRequestTrace(inflight_.req, inflight_.dispatch_ms, inflight_.total_ms,
                     inflight_.phases);
  }
  if (!on_complete_.empty()) {
    const Request req = inflight_.req;
    for (const auto& listener : on_complete_) {
      listener(req, sim_->NowMs());
    }
  }
  if (scheduler_->Empty()) {
    for (const auto& listener : on_idle_) {
      listener(sim_->NowMs());
    }
  } else {
    TryDispatch();
  }
}

}  // namespace mstk
