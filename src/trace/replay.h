// Trace-namespace spellings of the run harness (src/core/experiment.h). The
// frozen repository benchmark (perfbench/) still calls these names.
#ifndef MSTK_SRC_TRACE_REPLAY_H_
#define MSTK_SRC_TRACE_REPLAY_H_

#include <vector>

#include "src/core/experiment.h"

namespace mstk {
namespace trace {

using ::mstk::ArrivalMode;
using ReplayConfig = RunConfig;

inline ExperimentResult Replay(StorageDevice* device, IoScheduler* scheduler,
                               const std::vector<Request>& requests, const RunConfig& config,
                               TraceTrack trace = {}) {
  return Run(device, scheduler, requests, config, trace);
}

}  // namespace trace
}  // namespace mstk

#endif  // MSTK_SRC_TRACE_REPLAY_H_
