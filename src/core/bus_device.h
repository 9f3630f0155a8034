// Host interface (bus) model: a decorator charging SCSI-style command
// overhead and bus transfer time on top of a device's mechanical service.
//
// §2.4.11: the media rate "rarely matches that of the external interface,
// [so] speed-matching buffers are important". With such a buffer the bus
// transfer overlaps the media transfer and only the *slower* of the two
// paces the request (plus the non-overlapped protocol overhead); without
// one, the transfers serialize. A first-generation MEMS device's 79.6 MB/s
// media rate already saturates an Ultra2-era 80 MB/s bus — the interface,
// not the mechanics, becomes the bottleneck.
#ifndef MSTK_SRC_CORE_BUS_DEVICE_H_
#define MSTK_SRC_CORE_BUS_DEVICE_H_

#include <algorithm>

#include "src/core/storage_device.h"
#include "src/sim/units.h"

namespace mstk {

struct BusParams {
  double bandwidth_mb_s = 80.0;     // Ultra2 SCSI
  TimeMs command_overhead_ms = 0.05;  // per-request protocol + firmware time
  bool speed_matching_buffer = true;  // overlap bus and media transfer

  static BusParams Ultra2() { return {80.0, 0.05, true}; }
  static BusParams Ultra160() { return {160.0, 0.04, true}; }
  static BusParams Ultra320() { return {320.0, 0.03, true}; }
};

class BusDevice : public StorageDevice {
 public:
  BusDevice(const BusParams& params, StorageDevice* inner)
      : params_(params), inner_(inner) {}

  const char* name() const override { return "bus"; }
  int64_t CapacityBlocks() const override { return inner_->CapacityBlocks(); }

  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                        ServiceBreakdown* breakdown = nullptr) override {
    ServiceBreakdown inner_bd;
    const TimeMs mech_ms = inner_->ServiceRequest(req, start_ms, &inner_bd);
    inner_bd.EnsurePhases();
    const TimeMs bus_ms =
        static_cast<double>(req.bytes()) / (params_.bandwidth_mb_s * 1e3);
    double total;
    TimeMs bus_transfer_ms;  // bus time not hidden behind the media transfer
    if (params_.speed_matching_buffer) {
      // The buffer overlaps the two transfers: the slower one paces the
      // request, the positioning and protocol overheads do not overlap.
      const TimeMs media_ms = inner_bd.transfer_ms + inner_bd.extra_ms;
      total = params_.command_overhead_ms + inner_bd.positioning_ms +
              std::max(media_ms, bus_ms);
      bus_transfer_ms = std::max(0.0, bus_ms - media_ms);
    } else {
      total = params_.command_overhead_ms + mech_ms + bus_ms;
      bus_transfer_ms = bus_ms;
    }
    if (breakdown != nullptr) {
      *breakdown = ServiceBreakdown{inner_bd.positioning_ms,
                                    total - inner_bd.positioning_ms -
                                        params_.command_overhead_ms,
                                    params_.command_overhead_ms,
                                    {}};
      // Mechanical phases pass through; the protocol overhead and any bus
      // time extending past the media transfer stack on top.
      breakdown->phases = inner_bd.phases;
      breakdown->phases[Phase::kOverhead] += params_.command_overhead_ms;
      breakdown->phases[Phase::kTransfer] += bus_transfer_ms;
    }
    activity_.busy_ms += total;
    activity_.requests += 1;
    if (req.is_read()) {
      activity_.blocks_read += req.block_count;
    } else {
      activity_.blocks_written += req.block_count;
    }
    return total;
  }

  // Keeps the default positioning order (every request under key 0), so
  // SPTF estimates every pending request through this method.
  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override {
    return params_.command_overhead_ms + inner_->EstimatePositioningMs(req, at_ms);
  }

  void Reset() override {
    inner_->Reset();
    activity_ = DeviceActivity{};
  }

 private:
  BusParams params_;
  StorageDevice* inner_;
};

}  // namespace mstk

#endif  // MSTK_SRC_CORE_BUS_DEVICE_H_
