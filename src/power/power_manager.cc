#include "src/power/power_manager.h"

#include <algorithm>
#include <cassert>

#include "src/core/driver.h"
#include "src/sim/simulator.h"

namespace mstk {
namespace {

enum class PowerState { kActive, kIdle, kStandby };

class Accounting {
 public:
  Accounting(const DevicePowerParams& power, PowerResult* result)
      : power_(power), result_(result) {}

  // Closes the interval [last_, now] in `state` and moves the clock.
  void CloseInterval(PowerState state, TimeMs now) {
    double len = now - last_;
    assert(len >= -1e-9);
    len = std::max(len, 0.0);
    switch (state) {
      case PowerState::kActive: {
        // The first `startup_carry_` ms of an active interval after standby
        // run at startup power (device restarting).
        const double startup = std::min(startup_carry_, len);
        startup_carry_ -= startup;
        result_->startup_ms += startup;
        result_->startup_j += startup * power_.startup_mw * 1e-6;
        result_->active_ms += len - startup;
        result_->active_j += (len - startup) * power_.active_mw * 1e-6;
        break;
      }
      case PowerState::kIdle:
        result_->idle_ms += len;
        result_->idle_j += len * power_.idle_mw * 1e-6;
        break;
      case PowerState::kStandby:
        result_->standby_ms += len;
        result_->standby_j += len * power_.standby_mw * 1e-6;
        break;
    }
    last_ = now;
  }

  void BeginRestart() {
    startup_carry_ = power_.restart_ms;
    ++result_->restarts;
  }

 private:
  const DevicePowerParams& power_;
  PowerResult* result_;
  TimeMs last_ = 0.0;
  double startup_carry_ = 0.0;
};

// Mutable state shared by the run's scheduled events. Scheduled callbacks
// capture one pointer to this (plus at most one scalar) so they fit the
// event queue's inline capture budget.
struct RunState {
  Simulator* sim = nullptr;
  Driver* driver = nullptr;
  Accounting* accounting = nullptr;
  const DevicePowerParams* power = nullptr;
  PowerState state = PowerState::kIdle;
  int64_t idle_epoch = 0;  // invalidates pending standby timers
  TimeMs standby_since = 0.0;
};

}  // namespace

PowerResult RunPowerExperiment(StorageDevice* device, IoScheduler* scheduler,
                               const std::vector<Request>& requests,
                               const DevicePowerParams& power, const IdlePolicy& policy) {
  device->Reset();
  scheduler->Reset();

  Simulator sim;
  MetricsCollector metrics;
  Driver driver(&sim, device, scheduler, &metrics);
  PowerResult result;
  Accounting accounting(power, &result);

  RunState rs;
  rs.sim = &sim;
  rs.driver = &driver;
  rs.accounting = &accounting;
  rs.power = &power;
  // Adaptive-timeout state (kAdaptiveIdle): halve after worthwhile
  // spin-downs, double after regretted ones.
  double adaptive_timeout = std::max(policy.timeout_ms, policy.min_timeout_ms);
  // Break-even standby duration: the restart's energy cost divided by the
  // idle-vs-standby savings rate. Shorter stays are regretted; stays well
  // past it earn a shorter timeout.
  const double savings_mw = std::max(power.idle_mw - power.standby_mw, 1.0);
  const double break_even_ms = power.restart_ms * power.startup_mw / savings_mw;
  const double regret_ms = policy.regret_ms > 0.0 ? policy.regret_ms : break_even_ms;

  // Driver state callbacks are plain std::function — free to capture widely.
  driver.AddActiveListener([&](TimeMs now) {
    accounting.CloseInterval(rs.state, now);
    ++rs.idle_epoch;
    if (rs.state == PowerState::kStandby) {
      accounting.BeginRestart();
      if (policy.kind == IdlePolicyKind::kAdaptiveIdle) {
        const double stay_ms = now - rs.standby_since;
        if (stay_ms < regret_ms) {
          adaptive_timeout = std::min(adaptive_timeout * 2.0, policy.max_timeout_ms);
        } else if (stay_ms > 4.0 * regret_ms) {
          adaptive_timeout = std::max(adaptive_timeout / 2.0, policy.min_timeout_ms);
        }
      }
    }
    rs.state = PowerState::kActive;
  });

  driver.AddIdleListener([&](TimeMs now) {
    accounting.CloseInterval(rs.state, now);
    rs.state = PowerState::kIdle;
    const int64_t epoch = ++rs.idle_epoch;
    switch (policy.kind) {
      case IdlePolicyKind::kAlwaysOn:
        break;
      case IdlePolicyKind::kImmediateIdle:
        accounting.CloseInterval(rs.state, now);
        rs.state = PowerState::kStandby;
        rs.standby_since = now;
        break;
      case IdlePolicyKind::kTimeoutIdle:
      case IdlePolicyKind::kAdaptiveIdle: {
        const double timeout = policy.kind == IdlePolicyKind::kTimeoutIdle
                                   ? policy.timeout_ms
                                   : adaptive_timeout;
        RunState* st = &rs;
        sim.ScheduleAfter(timeout, [st, epoch] {
          if (st->idle_epoch == epoch && st->state == PowerState::kIdle) {
            st->accounting->CloseInterval(st->state, st->sim->NowMs());
            st->state = PowerState::kStandby;
            st->standby_since = st->sim->NowMs();
          }
        });
        break;
      }
    }
  });

  for (const Request& req : requests) {
    // Capture a pointer into `requests` (it outlives the run) plus the run
    // state to keep the arrival event inside the inline capture budget.
    const Request* arrival = &req;
    RunState* st = &rs;
    sim.ScheduleAt(req.arrival_ms, [st, arrival] {
      if (st->state == PowerState::kStandby && !st->driver->device_busy()) {
        st->driver->AddDispatchPenalty(st->power->restart_ms);
      }
      st->driver->Submit(*arrival);
    });
  }
  sim.Run();
  accounting.CloseInterval(rs.state, sim.NowMs());

  // Per-bit media energy: the tips draw media_mw only while data passes
  // under them (the §7 "power is linear in bits accessed" term).
  result.media_j = device->activity().transfer_ms * power.media_mw * 1e-6;
  result.mean_response_ms = metrics.response_time().mean();
  result.makespan_ms = metrics.last_completion_ms();
  return result;
}

}  // namespace mstk
