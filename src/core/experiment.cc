#include "src/core/experiment.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/core/background.h"
#include "src/core/driver.h"
#include "src/sim/check.h"
#include "src/sim/simulator.h"

namespace mstk {
namespace {

// Slot accounting for the windowed modes. Events capture one pointer to
// this, staying inside the event queue's inline capture budget.
struct Window {
  Simulator* sim = nullptr;
  Driver* driver = nullptr;
  const std::vector<Request>* requests = nullptr;
  int slots = 0;
  TimeMs think_ms = 0.0;
  bool stamp_arrivals = false;  // closed: arrival_ms = submission time
  size_t eligible = 0;          // requests whose arrival time has passed
  size_t next = 0;              // next request to submit
  int outstanding = 0;          // submitted requests still holding a slot

  void Admit() {
    while (outstanding < slots && next < eligible) {
      Request req = (*requests)[next];
      ++next;
      ++outstanding;
      if (stamp_arrivals) {
        req.arrival_ms = sim->NowMs();
      }
      driver->Submit(req);
    }
  }

  void Arrive() {
    ++eligible;
    Admit();
  }

  void Reopen() {
    --outstanding;
    Admit();
  }

  void OnComplete(const Request& req) {
    // Rebuild traffic holds no slot, and once every request is submitted a
    // reopened slot has nothing left to admit.
    if (req.background || next == requests->size()) {
      return;
    }
    if (think_ms > 0.0) {
      sim->ScheduleAfter(think_ms, [this] { Reopen(); });
    } else {
      Reopen();
    }
  }
};

}  // namespace

const char* ArrivalModeName(ArrivalMode mode) {
  switch (mode) {
    case ArrivalMode::kOpen: return "open";
    case ArrivalMode::kClosed: return "closed";
    case ArrivalMode::kHybrid: return "hybrid";
  }
  return "?";
}

bool ParseArrivalMode(const char* name, ArrivalMode* out) {
  if (std::strcmp(name, "open") == 0) {
    *out = ArrivalMode::kOpen;
  } else if (std::strcmp(name, "closed") == 0) {
    *out = ArrivalMode::kClosed;
  } else if (std::strcmp(name, "hybrid") == 0) {
    *out = ArrivalMode::kHybrid;
  } else {
    return false;
  }
  return true;
}

ExperimentResult Run(StorageDevice* device, IoScheduler* scheduler,
                     const std::vector<Request>& requests, const RunConfig& config,
                     TraceTrack trace) {
  device->Reset();
  scheduler->Reset();

  Simulator sim;
  ExperimentResult result;
  result.metrics.set_exclude_background(config.fault_model != nullptr);
  Driver driver(&sim, device, scheduler, &result.metrics);
  driver.set_trace(trace);

  // The rebuild runner's listeners and kick-off event precede every arrival.
  std::optional<BackgroundRunner> rebuilds;
  if (config.fault_model != nullptr) {
    driver.EnableRecovery(config.fault_model, RecoveryPolicy{});
    rebuilds.emplace(&sim, &driver, /*tasks=*/std::vector<Request>{}, config.rebuild_idle_delay_ms);
    BackgroundRunner* runner = &*rebuilds;
    const int64_t capacity = device->CapacityBlocks();
    driver.set_rebuild_sink([runner, capacity](int64_t lbn, int32_t blocks) {
      // Rebuild the whole aligned region around the failed extent: the spare
      // tip (or spare-region sectors) must be repopulated from the redundancy
      // group, which means re-reading the surviving data nearby.
      const int64_t base = (lbn / kRebuildRegionBlocks) * kRebuildRegionBlocks;
      const int64_t end = std::min(capacity, std::max(base + kRebuildRegionBlocks, lbn + blocks));
      for (int64_t at = base; at < end; at += kRebuildChunkBlocks) {
        Request task;
        task.type = IoType::kRead;
        task.lbn = at;
        task.block_count = static_cast<int32_t>(std::min<int64_t>(kRebuildChunkBlocks, end - at));
        runner->Enqueue(task);
      }
    });
  }

  Window window;
  if (config.mode == ArrivalMode::kOpen) {
    for (const Request& req : requests) {
      // Capture a pointer into `requests` (it outlives the run) to keep the
      // arrival event inside the queue's inline capture budget.
      const Request* arrival = &req;
      sim.ScheduleAt(req.arrival_ms, [&driver, arrival] { driver.Submit(*arrival); });
    }
  } else {
    MSTK_CHECK(config.window >= 1, "windowed run needs window >= 1");
    window.sim = &sim;
    window.driver = &driver;
    window.requests = &requests;
    window.slots = config.window;
    window.think_ms = config.think_ms;
    window.stamp_arrivals = config.mode == ArrivalMode::kClosed;
    Window* w = &window;
    driver.AddCompletionListener([w](const Request& req, TimeMs) { w->OnComplete(req); });
    if (config.mode == ArrivalMode::kClosed) {
      // Arrival times are demand order only: everything is eligible at t=0.
      window.eligible = requests.size();
      sim.ScheduleAt(0.0, [w] { w->Admit(); });
    } else {
      // Eligibility tracks arrivals; the window throttles submission.
      // Arrivals are sorted, so a counter is the FIFO.
      for (const Request& req : requests) {
        sim.ScheduleAt(req.arrival_ms, [w] { w->Arrive(); });
      }
    }
  }

  result.events = sim.Run();
  result.makespan_ms = result.metrics.last_completion_ms();
  result.activity = device->activity();
  return result;
}

}  // namespace mstk
