// Trace scaling transforms: reshape a captured trace so one recorded
// workload can drive experiments at other speeds, on other device
// geometries, and at emulated fan-in scale.
//
// All transforms are pure, deterministic record->record functions; applying
// the same transform to the same trace always yields byte-identical output,
// so transformed traces stay inside the CI determinism gates.
#ifndef MSTK_SRC_TRACE_TRANSFORMS_H_
#define MSTK_SRC_TRACE_TRANSFORMS_H_

#include <cstdint>
#include <vector>

#include "src/trace/format.h"

namespace mstk {
namespace trace {

// Time-warp (the paper's §4.3 scaling): divides every timestamp by `factor`,
// so factor 2 halves all interarrival gaps (doubling the offered load) and
// factor 0.5 slows the trace down. Integer microsecond timestamps round
// half-up and saturate at 9.2e18; order is preserved. Requires factor > 0.
std::vector<TraceRecord> TimeWarp(const std::vector<TraceRecord>& records, double factor);

// How RemapToCapacity fits a trace's address footprint onto a device.
enum class RemapMode {
  // Linearly rescale the trace's footprint onto [0, capacity): relative
  // distances (and therefore locality structure) are preserved, every
  // request lands on the device. The natural choice when replaying a trace
  // captured on a different-sized device.
  kScale,
};

// Remaps record addresses onto a device of `capacity_blocks` blocks by
// linear rescale (kScale, the only mode). A record that still ends past the
// device slides back inside, keeping its length. Requires
// capacity_blocks > 0.
std::vector<TraceRecord> RemapToCapacity(const std::vector<TraceRecord>& records,
                                         int64_t capacity_blocks, RemapMode mode);

// N-way client multiplication for emulated fan-in load: returns the trace
// with `factor` interleaved copies. Copy k keeps every timestamp (the same
// recorded arrival pattern hitting the device from k independent clients),
// renumbers clients to `k * clients_per_copy + original_client`, and shifts
// addresses by k working-set strides (modulo capacity_blocks) so the copies
// model distinct users with distinct working sets rather than N ghosts of
// one user. Output orders by original record position, then copy index —
// fully deterministic. Requires factor >= 1, capacity_blocks > 0 and
// MultipliedClientsFit(records, factor).
std::vector<TraceRecord> MultiplyClients(const std::vector<TraceRecord>& records, int factor,
                                         int64_t capacity_blocks);

// Whether every client id MultiplyClients(records, factor, ...) assigns
// fits in int32_t: factor * (largest client id + 1) <= 2^31.
bool MultipliedClientsFit(const std::vector<TraceRecord>& records, int factor);

}  // namespace trace
}  // namespace mstk

#endif  // MSTK_SRC_TRACE_TRANSFORMS_H_
