// Figure 11: comparison of data layout schemes (§5.3).
//
// Workload: 10,000 read requests; 89% "small" (4 KB) to a pool of popular
// small objects, 11% "large" (400 KB) whole-stream reads. Layout rows come
// from the LayoutPolicy registry (src/layout/layout_policy.h), selected with
// --layouts:
//   legacy (default) — the paper's four §5.3 schemes:
//     simple      — aged-filesystem placement: every object/stream at a
//                   uniform random spot on the device (linear LBN mapping,
//                   no locality management)
//     organ-pipe  — frequency-ranked placement around the device center
//                   [VC90, RW91]; per-unit access frequency decides rank,
//                   with ~1 large access per 8 small ones
//     subregioned — bipartite 5x5 grid: small pool in the centermost cell,
//                   streams in the 10 leftmost + 10 rightmost cells
//     columnar    — bipartite 25-column split: small pool in the center
//                   column, streams in the outer 20 columns
//   all              — legacy plus the KAIST region-model strategies
//                      (region-seq, tiled, hot-cold; arXiv:0807.4580)
//   name,name,...    — an explicit row list by policy name
//
// Devices: MEMS (default), MEMS with zero settle, and the Atlas 10K
// (simple and organ-pipe only — the region-based schemes are MEMS-specific).
//
// Expected shape (paper): organ pipe, subregioned, and columnar all beat
// simple by 13-20% on MEMS; subregioned/columnar edge out organ pipe; with
// zero settle the subregioned layout (which optimizes X and Y) wins by a
// further margin; Atlas gains ~13% from organ pipe.
//
// Multi-trial: with --trials N each cell replays N access streams (and, for
// the simple layout, N random placements); streams depend only on the trial
// seed, so every layout/device cell of a trial sees the same accesses. The
// shared policy/organ-pipe placements are deterministic and read-only, so
// trials fan out across --jobs workers safely.
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/layout/layout_policy.h"

namespace {

using namespace mstk;

constexpr int64_t kSmallObjects = 25000;
constexpr int32_t kSmallBlocks = 8;  // 4 KB
constexpr int64_t kStreams = 1000;
constexpr int32_t kStreamBlocks = 800;  // 400 KB
constexpr int64_t kSmallPool = kSmallObjects * kSmallBlocks;  // 200,000 blocks
constexpr int64_t kLargePool = kStreams * kStreamBlocks;      // 800,000 blocks

struct Access {
  bool large;
  int64_t unit;  // object or stream index
};

std::vector<Access> MakeAccesses(int64_t count, Rng& rng) {
  std::vector<Access> accesses;
  accesses.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Access a;
    a.large = rng.Bernoulli(0.11);
    a.unit = a.large ? rng.UniformInt(kStreams) : rng.UniformInt(kSmallObjects);
    accesses.push_back(a);
  }
  return accesses;
}

// A placement maps each unit to its physical extents.
struct Placement {
  std::vector<int64_t> small_base;   // per object
  std::vector<int64_t> stream_base;  // per stream (contiguous kStreamBlocks)
  const LayoutMap* bipartite = nullptr;  // set for policy-built layouts
};

Placement MakeSimplePlacement(int64_t capacity, Rng& rng) {
  Placement p;
  p.small_base.resize(kSmallObjects);
  for (auto& base : p.small_base) {
    base = rng.UniformInt(capacity / kSmallBlocks - 1) * kSmallBlocks;
  }
  p.stream_base.resize(kStreams);
  for (auto& base : p.stream_base) {
    base = rng.UniformInt(capacity - kStreamBlocks);
  }
  return p;
}

// Frequency-ranked organ pipe, following the paper's setup: "we created a
// distribution of one large request for every eight small requests", i.e.
// the popularity ranking interleaves large and small units, so the
// arrangement alternates runs of small objects with streams, sides
// alternating outward from the device center.
Placement MakeOrganPipePlacement(int64_t capacity) {
  Placement p;
  p.small_base.resize(kSmallObjects);
  p.stream_base.resize(kStreams);
  int64_t right = capacity / 2;  // next allocation on the right side
  int64_t left = capacity / 2;   // next allocation on the left side
  bool to_right = true;
  auto allocate = [&](int64_t blocks) {
    if (to_right) {
      const int64_t base = right;
      right += blocks;
      to_right = false;
      return base;
    }
    left -= blocks;
    to_right = true;
    return left;
  };
  // Proportional interleave: kSmallObjects/kStreams small objects per stream.
  constexpr int64_t kPerChunk = kSmallObjects / kStreams;
  static_assert(kPerChunk * kStreams == kSmallObjects,
                "object count must divide evenly for the interleave");
  for (int64_t s = 0; s < kStreams; ++s) {
    for (int64_t o = 0; o < kPerChunk; ++o) {
      p.small_base[static_cast<size_t>(s * kPerChunk + o)] = allocate(kSmallBlocks);
    }
    p.stream_base[static_cast<size_t>(s)] = allocate(kStreamBlocks);
  }
  return p;
}

TrialMetrics MeasureAccesses(StorageDevice* device, const Placement& placement,
                             const std::vector<Access>& accesses) {
  device->Reset();
  double total = 0.0;
  double small_total = 0.0;
  double large_total = 0.0;
  int64_t smalls = 0;
  int64_t larges = 0;
  for (const Access& a : accesses) {
    double access_ms = 0.0;
    Request req;
    req.type = IoType::kRead;
    if (placement.bipartite != nullptr) {
      const int64_t logical =
          a.large ? kSmallPool + a.unit * kStreamBlocks : a.unit * kSmallBlocks;
      const int32_t blocks = a.large ? kStreamBlocks : kSmallBlocks;
      for (const PhysExtent& extent : placement.bipartite->MapExtent(logical, blocks)) {
        req.lbn = extent.lbn;
        req.block_count = extent.blocks;
        access_ms += device->ServiceRequest(req, 0.0);
      }
    } else {
      req.lbn = a.large ? placement.stream_base[static_cast<size_t>(a.unit)]
                        : placement.small_base[static_cast<size_t>(a.unit)];
      req.block_count = a.large ? kStreamBlocks : kSmallBlocks;
      access_ms = device->ServiceRequest(req, 0.0);
    }
    total += access_ms;
    if (a.large) {
      large_total += access_ms;
      ++larges;
    } else {
      small_total += access_ms;
      ++smalls;
    }
  }
  return {
      {"mean_ms", total / static_cast<double>(accesses.size())},
      {"small_ms", smalls > 0 ? small_total / static_cast<double>(smalls) : 0.0},
      {"large_ms", larges > 0 ? large_total / static_cast<double>(larges) : 0.0},
  };
}

enum class DeviceKind { kMems, kNoSettle, kAtlas };

// One bench row: simple and organ-pipe keep their bespoke Fig 11 placements
// (random per trial / frequency-ranked interleave, both of which the
// ExtentLayout factories cannot express); every other row is a registry
// policy measured through its built layout.
struct RowSpec {
  std::string name;
  bool bespoke_simple = false;
  bool bespoke_organ = false;
  const ExtentLayout* layout = nullptr;
  bool has_disk = false;  // Atlas column (device-agnostic placements only)
};

// Expands --layouts into an ordered row list. Legacy order matches the
// pre-registry bench (simple, organ-pipe, subregioned, columnar) so default
// output stays byte-identical; "all" appends the remaining registry
// policies in registration order.
std::vector<std::string> SelectLayoutNames(const std::string& flag, const char* argv0) {
  const std::vector<std::string> legacy = {"simple", "organ-pipe", "subregioned",
                                           "columnar"};
  if (flag.empty() || flag == "legacy") {
    return legacy;
  }
  if (flag == "all") {
    std::vector<std::string> names = legacy;
    for (const LayoutPolicy* policy : AllLayoutPolicies()) {
      bool present = false;
      for (const std::string& have : names) {
        present = present || have == policy->name();
      }
      if (!present) {
        names.push_back(policy->name());
      }
    }
    return names;
  }
  std::vector<std::string> names;
  std::string token;
  for (size_t i = 0; i <= flag.size(); ++i) {
    if (i == flag.size() || flag[i] == ',') {
      if (!token.empty()) {
        names.push_back(token);
      }
      token.clear();
    } else {
      token.push_back(flag[i]);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "%s: --layouts needs legacy, all, or policy names (%s)\n",
                 argv0, LayoutPolicyNames().c_str());
    std::exit(2);
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(
      argc, argv, kCsv | kFast | kTrialFlags | kLayouts | kJson);
  const TableWriter table(opts.csv);
  BenchJson json("fig11_layout_comparison", opts);
  const int64_t count = opts.Scale(10000);

  // Deterministic shared placements (read-only across trial threads).
  const MemsDevice mems_probe;
  const DiskDevice atlas_probe;
  const Placement organ_mems = MakeOrganPipePlacement(mems_probe.CapacityBlocks());
  const Placement organ_disk = MakeOrganPipePlacement(atlas_probe.CapacityBlocks());

  LayoutSpec spec;
  spec.geometry = &mems_probe.geometry();
  spec.device_capacity_blocks = mems_probe.CapacityBlocks();
  spec.hot_blocks = kSmallPool;
  spec.cold_blocks = kLargePool;

  std::deque<ExtentLayout> built;  // stable addresses for RowSpec::layout
  std::vector<RowSpec> specs;
  for (const std::string& name : SelectLayoutNames(opts.layouts, argv[0])) {
    RowSpec row;
    row.name = name;
    if (name == "simple") {
      row.bespoke_simple = true;
      row.has_disk = true;
    } else if (name == "organ-pipe") {
      row.bespoke_organ = true;
      row.has_disk = true;
    } else {
      const LayoutPolicy* policy = FindLayoutPolicy(name);
      if (policy == nullptr) {
        std::fprintf(stderr, "%s: unknown layout '%s' (known: %s)\n", argv[0],
                     name.c_str(), LayoutPolicyNames().c_str());
        return 2;
      }
      built.push_back(policy->Build(spec));
      row.layout = &built.back();
    }
    specs.push_back(std::move(row));
  }

  TrialRunner::Options trial_opts = opts.TrialOptions();
  trial_opts.base_seed = DeriveTrialSeed(opts.seed, 55);

  // One (layout, device) cell: N trials, each replaying a fresh access
  // stream (same stream across all cells of a trial) on a fresh device.
  auto run_cell = [&](const RowSpec& row, DeviceKind device_kind) {
    return TrialRunner::Run(trial_opts, [&, device_kind](uint64_t seed, int64_t) {
      Rng rng(seed);
      const std::vector<Access> accesses = MakeAccesses(count, rng);

      MemsParams no_settle_params;
      no_settle_params.settle_constants = 0.0;
      MemsDevice mems(device_kind == DeviceKind::kNoSettle ? no_settle_params
                                                           : MemsParams{});
      DiskDevice atlas;
      StorageDevice* device = device_kind == DeviceKind::kAtlas
                                  ? static_cast<StorageDevice*>(&atlas)
                                  : &mems;

      if (row.bespoke_simple) {
        Rng place_rng(DeriveTrialSeed(seed, 77));
        const Placement p = MakeSimplePlacement(device->CapacityBlocks(), place_rng);
        return MeasureAccesses(device, p, accesses);
      }
      if (row.bespoke_organ) {
        return MeasureAccesses(
            device, device_kind == DeviceKind::kAtlas ? organ_disk : organ_mems,
            accesses);
      }
      Placement p;
      p.bipartite = row.layout;
      return MeasureAccesses(device, p, accesses);
    });
  };

  struct RowResult {
    AggregateResult mems, nosettle, disk;
    bool has_disk;
  };

  std::vector<std::pair<std::string, RowResult>> rows;
  for (const RowSpec& row : specs) {
    RowResult r;
    r.mems = run_cell(row, DeviceKind::kMems);
    r.nosettle = run_cell(row, DeviceKind::kNoSettle);
    r.has_disk = row.has_disk;
    if (row.has_disk) r.disk = run_cell(row, DeviceKind::kAtlas);
    json.AddCell(row.name + "/mems", r.mems);
    json.AddCell(row.name + "/nosettle", r.nosettle);
    if (row.has_disk) json.AddCell(row.name + "/atlas", r.disk);
    rows.push_back({row.name, std::move(r)});
  }

  std::printf("Figure 11: mean access time (ms) by layout and device\n");
  std::printf("(small = 4 KB requests, large = 400 KB requests)\n");
  table.Row({"layout", "MEMS", "MEMS-small", "MEMS-large", "nosettle", "Atlas10K"},
            12);
  for (const auto& [name, r] : rows) {
    table.Row({name, FmtCi("%.3f", r.mems.Get("mean_ms")),
               FmtCi("%.3f", r.mems.Get("small_ms")),
               FmtCi("%.3f", r.mems.Get("large_ms")),
               FmtCi("%.3f", r.nosettle.Get("mean_ms")),
               r.has_disk ? FmtCi("%.3f", r.disk.Get("mean_ms")) : "-"},
              12);
  }

  if (rows.size() > 1) {
    std::printf("\nImprovement over the %s layout (%%):\n", rows[0].first.c_str());
    table.Row({"layout", "MEMS", "MEMS-nosettle", "Atlas10K"});
    const RowResult& base = rows[0].second;
    for (size_t i = 1; i < rows.size(); ++i) {
      const RowResult& r = rows[i].second;
      table.Row(
          {rows[i].first,
           Fmt("%.1f", (1.0 - r.mems.Get("mean_ms").mean / base.mems.Get("mean_ms").mean) *
                           100.0),
           Fmt("%.1f", (1.0 - r.nosettle.Get("mean_ms").mean /
                                  base.nosettle.Get("mean_ms").mean) *
                           100.0),
           r.has_disk && base.has_disk
               ? Fmt("%.1f", (1.0 - r.disk.Get("mean_ms").mean /
                                        base.disk.Get("mean_ms").mean) *
                                 100.0)
               : "-"});
    }
  }
  return json.WriteIfRequested() ? 0 : 1;
}
