// The run harness: feeds a pre-generated request stream (a synthetic
// generator's or a replayed trace's) through driver + scheduler + device and
// collects metrics.
//
// Arrival control addresses the §4.3 footnote's open-versus-closed point:
//
//   kOpen    submit every request at its arrival_ms. Faithful to the
//            generated or recorded arrival process, but no completion
//            feedback: a slow device just builds queue.
//   kClosed  ignore arrival times: keep `window` requests outstanding (the
//            multiprogramming level), submitting the next one when a slot
//            reopens and stamping its arrival_ms with the submission time.
//            Saturation throughput and response-vs-load curves fall out.
//   kHybrid  a request is eligible at its arrival_ms but waits for a window
//            slot: submission time is max(arrival, slot free), and the wait
//            counts as queue time. Keeps the captured arrival shape while
//            bounding the fan-in a real client pool would impose.
//
// In the windowed modes each foreground completion reopens its slot
// `think_ms` later (immediately when 0). Requests are submitted in vector
// order, so hybrid streams must be sorted by arrival_ms.
#ifndef MSTK_SRC_CORE_EXPERIMENT_H_
#define MSTK_SRC_CORE_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "src/core/fault_model.h"
#include "src/core/io_scheduler.h"
#include "src/core/metrics.h"
#include "src/core/request.h"
#include "src/core/storage_device.h"
#include "src/sim/trace_writer.h"
#include "src/sim/units.h"

namespace mstk {

enum class ArrivalMode { kOpen, kClosed, kHybrid };

const char* ArrivalModeName(ArrivalMode mode);
// Parses "open" / "closed" / "hybrid"; returns false on anything else.
bool ParseArrivalMode(const char* name, ArrivalMode* out);

// Fault-path rebuild geometry: each remapped fault re-reads its aligned
// kRebuildRegionBlocks region in kRebuildChunkBlocks chunks.
inline constexpr int32_t kRebuildRegionBlocks = 512;
inline constexpr int32_t kRebuildChunkBlocks = 64;

struct RunConfig {
  ArrivalMode mode = ArrivalMode::kOpen;
  // Outstanding-request bound for kClosed / kHybrid (ignored by kOpen).
  int window = 8;
  // Delay between a foreground completion and its slot reopening.
  TimeMs think_ms = 0.0;
  // Optional §6 fault injection (borrowed; use a fresh model per run). The
  // driver recovers per the default RecoveryPolicy, and each remapped
  // permanent fault queues rebuild reads that a BackgroundRunner injects
  // once the device has been idle for `rebuild_idle_delay_ms`, so rebuild
  // traffic never preempts foreground requests. Foreground metrics exclude
  // the rebuilds (their volume shows up in the fault counters), and rebuild
  // completions never reopen window slots.
  FaultModel* fault_model = nullptr;
  TimeMs rebuild_idle_delay_ms = 0.5;
};

struct ExperimentResult {
  MetricsCollector metrics;
  // Virtual time of the last foreground completion. Rebuild I/O may keep
  // draining after it.
  TimeMs makespan_ms = 0.0;
  DeviceActivity activity;
  // Simulator events fired by the run.
  int64_t events = 0;

  TimeMs MeanResponseMs() const { return metrics.response_time().mean(); }
  TimeMs MeanServiceMs() const { return metrics.service_time().mean(); }
  double ResponseScv() const { return metrics.ResponseScv(); }
  double ThroughputPerSecond() const {
    return makespan_ms > 0.0
               ? static_cast<double>(metrics.completed()) / (makespan_ms / 1000.0)
               : 0.0;
  }
};

// Runs `requests` under `config`. The device and scheduler are Reset()
// first, so one pair can serve many runs. Passing an enabled `trace`
// records per-request phase slices on it; results are identical either way.
ExperimentResult Run(StorageDevice* device, IoScheduler* scheduler,
                     const std::vector<Request>& requests, const RunConfig& config = {},
                     TraceTrack trace = {});

}  // namespace mstk

#endif  // MSTK_SRC_CORE_EXPERIMENT_H_
