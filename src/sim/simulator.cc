#include "src/sim/simulator.h"

#include <cassert>
#include <utility>

namespace mstk {

void Simulator::ScheduleAt(TimeMs at_ms, Callback cb) {
  assert(at_ms >= now_ms_ && "event scheduled in the past");
  queue_.Push(at_ms, std::move(cb));
}

void Simulator::ScheduleAfter(TimeMs delay_ms, Callback cb) {
  assert(delay_ms >= 0.0 && "negative delay");
  queue_.Push(now_ms_ + delay_ms, std::move(cb));
}

int64_t Simulator::Run() {
  int64_t fired = 0;
  while (!queue_.Empty()) {
    queue_.FireNext(&now_ms_);
    ++fired;
  }
  return fired;
}

int64_t Simulator::RunUntil(TimeMs until_ms) {
  int64_t fired = 0;
  while (!queue_.Empty() && queue_.PeekTime() <= until_ms) {
    queue_.FireNext(&now_ms_);
    ++fired;
  }
  if (now_ms_ < until_ms) {
    now_ms_ = until_ms;
  }
  return fired;
}

}  // namespace mstk
