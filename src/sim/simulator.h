// Discrete-event simulation kernel.
//
// The kernel owns the virtual clock and the event queue. Model code schedules
// callbacks at absolute or relative virtual times; Run() drains the queue in
// time order. This mirrors the structure of DiskSim's event loop, which the
// paper's experiments were built on.
#ifndef MSTK_SRC_SIM_SIMULATOR_H_
#define MSTK_SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/units.h"

namespace mstk {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  // Current virtual time (ms).
  TimeMs NowMs() const { return now_ms_; }

  // Schedules `cb` at absolute virtual time `at_ms` (must be >= NowMs()).
  // Fire-and-forget: a scheduled event cannot be cancelled.
  void ScheduleAt(TimeMs at_ms, Callback cb);

  // Schedules `cb` `delay_ms` after the current time.
  void ScheduleAfter(TimeMs delay_ms, Callback cb);

  // Runs until the event queue is empty. Returns the number of events fired.
  int64_t Run();

  // Runs until the queue is empty or virtual time would exceed `until_ms`.
  // Events after the horizon remain queued; the clock stops at the horizon.
  int64_t RunUntil(TimeMs until_ms);

 private:
  EventQueue queue_;
  TimeMs now_ms_ = 0.0;
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_SIMULATOR_H_
