// §6.3 quantified: "synchronous writes will still not be desirable, but
// the much lower service times for MEMS-based storage devices should
// decrease the penalty." A journaling-style metadata workload: every
// operation appends a small synchronous journal record, then (once per
// group-commit batch) writes the affected metadata block in place.
//
// Expected shape: per-operation latency on the disk is rotation-bound
// (~8 ms per sync append) so group commit is essential; on MEMS each sync
// append costs ~0.2 ms (turnaround + row pass), making even ungrouped
// synchronous metadata updates tolerable — the crash-recovery penalty
// shrinks by ~40x.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

struct JournalResult {
  double mean_sync_ms;  // latency each operation spends waiting on its append
  double ops_per_s;     // sustained operation throughput
};

// Runs `ops` metadata operations with group commits of `batch` operations
// per journal append.
JournalResult JournalRun(StorageDevice& device, int batch, int64_t ops, uint64_t seed) {
  device.Reset();
  Rng rng(seed);
  const int64_t journal_base = device.CapacityBlocks() / 2;
  const int64_t meta_region = device.CapacityBlocks() / 8;
  int64_t journal_cursor = 0;
  double now = 0.0;
  double total = 0.0;
  for (int64_t i = 0; i < ops; i += batch) {
    // One synchronous journal append covers `batch` operations.
    Request append;
    append.type = IoType::kWrite;
    append.block_count = 8;
    append.lbn = journal_base + journal_cursor;
    journal_cursor = (journal_cursor + 8) % 65536;
    const double t_append = device.ServiceRequest(append, now);
    now += t_append;
    // The in-place metadata writes happen asynchronously afterwards; they
    // still occupy the device.
    double t_meta = 0.0;
    for (int b = 0; b < batch; ++b) {
      Request meta;
      meta.type = IoType::kWrite;
      meta.block_count = 8;
      meta.lbn = rng.UniformInt(meta_region);
      t_meta += device.ServiceRequest(meta, now + t_meta);
    }
    now += t_meta;
    // Each of the batch's operations waited for the sync append only.
    total += batch * t_append;
  }
  return JournalResult{total / static_cast<double>(ops),
                       static_cast<double>(ops) / (now / 1000.0)};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);
  const int64_t ops = opts.Scale(8000);

  MemsDevice mems;
  DiskDevice disk;

  std::printf("Synchronous metadata updates (journal append + in-place write)\n");
  table.Row({"group_commit", "MEMS_sync_ms", "disk_sync_ms", "MEMS_ops_s", "disk_ops_s"});
  for (const int batch : {1, 4, 16, 64}) {
    const JournalResult m = JournalRun(mems, batch, ops, 3);
    const JournalResult d = JournalRun(disk, batch, ops, 3);
    table.Row({Fmt("%.0f", batch), Fmt("%.3f", m.mean_sync_ms),
               Fmt("%.3f", d.mean_sync_ms), Fmt("%.0f", m.ops_per_s),
               Fmt("%.0f", d.ops_per_s)});
  }

  std::printf("\nCrash-recovery availability (§6.3): device ready after\n");
  std::printf("  MEMS: %.1f ms (no spin-up; arrays restart concurrently)\n",
              mems.params().startup_ms);
  std::printf("  disk: %.0f s spin-up (power surge forces serialized restarts)\n",
              disk.params().spinup_seconds);
  return 0;
}
