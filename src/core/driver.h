// Queueing driver: the host-side I/O path tying workload, scheduler, and
// device together inside the discrete-event simulation.
//
// Arrivals come from a harness that calls Submit (see Run in
// src/core/experiment.h). The driver keeps the device busy with one request
// at a time — the single-spindle / single-sled model the paper's
// experiments use.
//
// With EnableRecovery the driver also runs the §6 failure path: each dispatch
// attempt is judged by a FaultModel, transient errors are retried with
// bounded backoff, lost completions recover through a host timeout, and
// permanent failures consume spares (remap) or push the device into degraded
// mode. All fault time lands in Phase::kFault so the phase tiling invariant
// (sum of service phases == service time) still holds.
#ifndef MSTK_SRC_CORE_DRIVER_H_
#define MSTK_SRC_CORE_DRIVER_H_

#include <functional>
#include <vector>

#include "src/core/fault_model.h"
#include "src/core/io_scheduler.h"
#include "src/core/metrics.h"
#include "src/core/request.h"
#include "src/core/storage_device.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_writer.h"
#include "src/sim/units.h"

namespace mstk {

// Knobs for the driver's fault-recovery path (§6).
struct RecoveryPolicy {
  int max_retries = 3;            // failed attempts before the request fails
  TimeMs retry_backoff_ms = 0.05; // linear backoff: (attempt+1) * backoff
  TimeMs timeout_ms = 50.0;       // host watchdog for lost completions
};

class Driver {
 public:
  // All pointers are borrowed and must outlive the driver. `metrics` may be
  // null: the driver then records no latency summaries or samples and
  // keeps only its fault counters (fault()), background completions
  // included. A composite that reads nothing else from its members
  // (ArrayManager) builds them that way.
  Driver(Simulator* sim, StorageDevice* device, IoScheduler* scheduler,
         MetricsCollector* metrics);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  // Submits a request at the current virtual time.
  void Submit(const Request& req);

  bool device_busy() const { return busy_; }
  int64_t queued() const { return scheduler_->size(); }

  // The fault counters this driver writes: its collector's, or its own
  // when it was built without one.
  const FaultCounters& fault() const { return *fault_; }

  // Attaches a fault model: every foreground dispatch attempt is judged and
  // recovered per `policy`. Background (rebuild) requests bypass injection.
  void EnableRecovery(FaultModel* model, const RecoveryPolicy& policy) {
    fault_model_ = model;
    recovery_ = policy;
  }

  // Receives the extent of every remapped permanent fault, so a harness can
  // queue background rebuild reads for the affected region.
  void set_rebuild_sink(std::function<void(int64_t lbn, int32_t blocks)> sink) {
    rebuild_sink_ = std::move(sink);
  }

  // Fires exactly once, the first time the fault model reports the device
  // degraded (a permanent fault found no spare left to remap onto). An
  // ArrayManager uses this to fail the member out of the array and promote a
  // hot spare.
  void set_degraded_sink(std::function<void(TimeMs now_ms)> sink) {
    degraded_sink_ = std::move(sink);
  }

  // Fires when a request completes (closed-loop workloads, power policies,
  // background work). Multiple listeners fire in registration order.
  void AddCompletionListener(std::function<void(const Request&, TimeMs now_ms)> cb) {
    on_complete_.push_back(std::move(cb));
  }
  // Fires when the device transitions busy -> idle with an empty queue
  // (power-management idle detection, background-work injection).
  void AddIdleListener(std::function<void(TimeMs now_ms)> cb) {
    on_idle_.push_back(std::move(cb));
  }
  // Fires when the device transitions idle -> busy.
  void AddActiveListener(std::function<void(TimeMs now_ms)> cb) {
    on_active_.push_back(std::move(cb));
  }

  // Extra latency (ms) to charge before the next dispatch — used by power
  // policies to model restart-from-idle penalties. Consumed by one dispatch.
  void AddDispatchPenalty(TimeMs penalty_ms) { pending_penalty_ms_ += penalty_ms; }

  // Attaches a trace track; every completed request then emits a slice with
  // nested per-phase child slices, plus queue-depth counter samples. A
  // default-constructed (disabled) track is free: tracing never changes
  // simulated timings or metrics, only records them.
  void set_trace(TraceTrack trace) { trace_ = trace; }

 private:
  // In-flight attempt state. The driver is single-in-flight (busy_ guards a
  // second dispatch), so the pending completion/retry event captures only
  // `this` and reads these members — keeping event captures inside the
  // queue's inline budget and off the heap.
  struct Inflight {
    Request req;
    int attempt = 0;
    TimeMs fault_ms = 0.0;    // time burned by earlier failed attempts
    TimeMs wait_ms = 0.0;     // delay before the pending retry fires
    TimeMs dispatch_ms = 0.0; // when the request left the queue
    TimeMs total_ms = 0.0;    // response-after-dispatch for the completion
    PhaseBreakdown phases;
  };

  void TryDispatch();
  // Runs one dispatch attempt of `req` at the current virtual time.
  // `fault_ms` accumulates the time already burned by earlier failed
  // attempts; `penalty_ms` is the dispatch penalty (first attempt only);
  // `dispatch_ms` is when the request left the queue.
  void StartAttempt(const Request& req, int attempt, TimeMs fault_ms, TimeMs penalty_ms,
                    TimeMs dispatch_ms);
  // Services the request's physical extents (post-remap) starting at
  // `start_ms`; returns the device time and fills `bd`.
  [[nodiscard]] double ServiceAttempt(const Request& req, TimeMs start_ms, ServiceBreakdown* bd);
  // Books the pending completion from inflight_: metrics, trace, listeners,
  // next dispatch.
  void Complete();
  void EmitRequestTrace(const Request& req, TimeMs dispatch_ms, TimeMs service_ms,
                        const PhaseBreakdown& phases) const;

  Simulator* sim_;
  StorageDevice* device_;
  IoScheduler* scheduler_;
  MetricsCollector* metrics_;  // null: record fault counters only
  FaultCounters own_fault_;    // used when metrics_ is null
  FaultCounters* fault_;       // &metrics_->fault() or &own_fault_
  std::vector<std::function<void(const Request&, TimeMs)>> on_complete_;
  std::vector<std::function<void(TimeMs)>> on_idle_;
  std::vector<std::function<void(TimeMs)>> on_active_;
  bool busy_ = false;
  // Scheduler allows the idle-device dispatch fast path (see Submit).
  const bool pass_through_ok_;
  Inflight inflight_;
  double pending_penalty_ms_ = 0.0;
  TraceTrack trace_;
  FaultModel* fault_model_ = nullptr;
  RecoveryPolicy recovery_;
  std::vector<IoExtent> extents_;  // ServiceAttempt's remap buffer, reused
  std::function<void(int64_t, int32_t)> rebuild_sink_;
  std::function<void(TimeMs)> degraded_sink_;
  bool degraded_notified_ = false;
};

}  // namespace mstk

#endif  // MSTK_SRC_CORE_DRIVER_H_
