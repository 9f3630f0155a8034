// The benchmark's four workloads. Each one builds its inputs from the run
// seed, drives the mstk libraries from one thread in virtual time, and reads
// back the simulated statistics it checks and reports. See README.md for why
// each workload exists and which layers it exposes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "src/core/metrics.h"

namespace perfbench {

// Every simulation completes at least this many requests at full size, so
// at least ten response samples lie beyond p99.9.
inline constexpr int64_t kMinSimRequests = 10000;

// Knobs for the benchmark's own tests; a normal run leaves them at default.
struct Options {
  // Multiplies every request count (tests run tiny sizes).
  double scale = 1.0;
  // When >= 0, every scheduler silently drops its drop_request-th Add.
  int64_t drop_request = -1;
  // Runs the SPTF exactness check against a last-index-wins-ties scheduler
  // instead of SptfScheduler.
  bool perturbed_sptf = false;
};

// FNV-1a over the exact bits of every value folded in.
class Digest {
 public:
  void Add(uint64_t word);
  void Add(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void Add(double value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// What one pass over a workload did and read back.
struct PassOutcome {
  // Host time.
  double setup_s = 0.0;  // before the timed region: inputs, devices, array
  double timed_s = 0.0;  // inside the timed region: the simulations

  // Foreground requests: submitted, completed without Request::failed, and
  // failed (never completed, or completed failed).
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;

  // Simulated statistics, pooled over the pass's simulations.
  int64_t simulations = 0;
  int64_t min_sim_completed = 0;  // fewest completions of any simulation
  double response_sum_ms = 0.0;   // sum over simulations of mean * count
  int64_t response_count = 0;
  double response_p999_max_ms = 0.0;  // highest per-simulation p99.9
  double queue_sum_ms = 0.0;
  int64_t queue_count = 0;
  int64_t events = 0;  // Simulator::Run event count where the harness sees it
  double mems_busy_ms = 0.0;  // device busy time, and device-time the MEMS /
  double mems_span_ms = 0.0;  // disk devices that saw I/O were under simulation
  double disk_busy_ms = 0.0;
  double disk_span_ms = 0.0;
  mstk::FaultCounters faults;  // member fault and rebuild counters
  int64_t member_ops = 0;      // member ServiceRequest calls for foreground I/O
  int64_t rebuild_chunks = 0;
  int64_t rebuilds = 0;
  double rebuild_sim_ms = 0.0;  // summed rebuilding -> resync virtual time
  int64_t trace_records = 0;
  int64_t trace_bytes = 0;

  uint64_t digest = 0;
  // Non-empty when a workload invariant failed (array not optimal, trace
  // round trip differs, ...).
  std::string error;
};

// Pools `from` into `into`: sums, except the p99.9 (highest) and the
// fewest-completions field (lowest). Digests and errors are left alone.
void Merge(const PassOutcome& from, PassOutcome* into);

class Workload {
 public:
  virtual ~Workload() = default;
  // A workload is made of units, each a fixed set of simulations with its
  // own inputs; passes cycle through them. The workload's simulated
  // statistics pool one cycle, so a unit can be kept short enough for many
  // timed passes per run while the statistics still cover enough requests.
  virtual int units() const { return 1; }
  // One pass over `unit`: set up, run its timed simulations, read back. A
  // null ledger runs the bare stack; otherwise the stack is decorated and
  // every boundary recorded on `ledger`.
  virtual PassOutcome RunPass(int unit, Ledger* ledger) = 0;
  // Output checks that run once per process, outside the timed region.
  // Returns an empty string when they pass.
  virtual std::string CheckOnce() { return ""; }
};

const std::vector<std::string>& WorkloadNames();

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
