#include "src/trace/scenarios.h"

#include <algorithm>
#include <cmath>

#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/sim/units.h"

namespace mstk {
namespace trace {
namespace {

constexpr int64_t kGiBBlocks = 1024LL * 1024 * 1024 / kBlockBytes;

// Accumulates records with double-ms arrival times and emits a valid
// (monotonic, integer-microsecond) record stream.
class ScenarioBuilder {
 public:
  void Add(double arrival_ms, int64_t lba, int32_t blocks, IoType op, int32_t client) {
    Pending p;
    p.arrival_ms = arrival_ms;
    p.record.lba = lba;
    p.record.blocks = blocks;
    p.record.op = op;
    p.record.client = client;
    pending_.push_back(p);
  }

  std::vector<TraceRecord> Finish() {
    // Stable sort: simultaneous arrivals keep generation order, so the
    // output is a deterministic function of the Add() sequence. Scenarios
    // that generate in time order skip it; on sorted input it is the
    // identity.
    const auto earlier = [](const Pending& a, const Pending& b) {
      return a.arrival_ms < b.arrival_ms;
    };
    if (!std::is_sorted(pending_.begin(), pending_.end(), earlier)) {
      std::stable_sort(pending_.begin(), pending_.end(), earlier);
    }
    std::vector<TraceRecord> records;
    records.reserve(pending_.size());
    int64_t last_us = 0;
    for (const Pending& p : pending_) {
      TraceRecord r = p.record;
      r.timestamp_us = std::max(last_us, MsToUs(p.arrival_ms));
      last_us = r.timestamp_us;
      records.push_back(r);
    }
    return records;
  }

 private:
  struct Pending {
    double arrival_ms = 0.0;
    TraceRecord record;
  };
  std::vector<Pending> pending_;
};

// media_server: 16 streams, each sequentially reading 128 KB chunks of its
// own region at a steady per-stream cadence with small jitter.
std::vector<TraceRecord> GenMediaServer(const ScenarioConfig& config, int64_t footprint) {
  constexpr int kStreams = 16;
  constexpr int32_t kChunkBlocks = 256;  // 128 KB
  constexpr double kStreamGapMs = 40.0;  // ~3.2 MB/s per stream
  Rng rng(config.seed);
  ScenarioBuilder builder;
  const int64_t region = footprint / kStreams;
  double next_ms[kStreams];
  int64_t cursor[kStreams];
  for (int s = 0; s < kStreams; ++s) {
    next_ms[s] = rng.Uniform(0.0, kStreamGapMs);  // desynchronized starts
    cursor[s] = region * s;
  }
  for (int64_t i = 0; i < config.request_count; ++i) {
    // Next event: the stream with the earliest clock (ties by index).
    int s = 0;
    for (int j = 1; j < kStreams; ++j) {
      if (next_ms[j] < next_ms[s]) {
        s = j;
      }
    }
    builder.Add(next_ms[s], cursor[s], kChunkBlocks, IoType::kRead, s);
    cursor[s] += kChunkBlocks;
    if (cursor[s] + kChunkBlocks > region * (s + 1)) {
      cursor[s] = region * s;  // loop the title
    }
    next_ms[s] += kStreamGapMs * rng.Uniform(0.9, 1.1);
  }
  return builder.Finish();
}

// oltp_burst: tpcc-shaped accesses (16-block pages over a 1 GB database,
// 65% reads, a circular-log client) under two-state ON/OFF arrivals whose
// bursts are far spikier than the steady Poisson tpcc stand-in.
std::vector<TraceRecord> GenOltpBurst(const ScenarioConfig& config, int64_t footprint) {
  constexpr int kPageClients = 8;
  constexpr int32_t kPageBlocks = 16;
  constexpr double kBaseRatePerS = 400.0;
  constexpr double kBurstFactor = 16.0;
  constexpr double kMeanBurstMs = 50.0;
  constexpr double kMeanQuietMs = 450.0;
  Rng rng(config.seed);
  ScenarioBuilder builder;
  const int64_t db_blocks = std::min(footprint - footprint / 16, kGiBBlocks);
  const int64_t pages = db_blocks / kPageBlocks;
  const int64_t log_base = db_blocks;
  const int64_t log_blocks = footprint - db_blocks;

  const double quiet_rate = kBaseRatePerS / (1.0 - kMeanBurstMs / (kMeanBurstMs + kMeanQuietMs) +
                                             kMeanBurstMs / (kMeanBurstMs + kMeanQuietMs) *
                                                 kBurstFactor);
  double now_ms = 0.0;
  bool in_burst = false;
  double state_end_ms = rng.Exponential(kMeanQuietMs);
  int64_t log_cursor = 0;
  for (int64_t i = 0; i < config.request_count; ++i) {
    for (;;) {
      const double rate = in_burst ? quiet_rate * kBurstFactor : quiet_rate;
      const double gap_ms = rng.Exponential(1000.0 / rate);
      if (now_ms + gap_ms <= state_end_ms) {
        now_ms += gap_ms;
        break;
      }
      now_ms = state_end_ms;
      in_burst = !in_burst;
      state_end_ms = now_ms + rng.Exponential(in_burst ? kMeanBurstMs : kMeanQuietMs);
    }
    if (rng.Bernoulli(0.15)) {
      builder.Add(now_ms, log_base + log_cursor, 8, IoType::kWrite, kPageClients);
      log_cursor += 8;
      if (log_cursor + 8 >= log_blocks) {
        log_cursor = 0;
      }
    } else {
      const IoType op = rng.Bernoulli(0.65) ? IoType::kRead : IoType::kWrite;
      builder.Add(now_ms, rng.UniformInt(pages) * kPageBlocks, kPageBlocks, op,
                  static_cast<int32_t>(rng.UniformInt(kPageClients)));
    }
  }
  return builder.Finish();
}

// diurnal_web: arrival rate follows a sinusoidal "day" (compressed so the
// default trace spans several cycles), Zipf-hot small reads plus occasional
// large asset fetches and a small write fraction.
std::vector<TraceRecord> GenDiurnalWeb(const ScenarioConfig& config, int64_t footprint) {
  constexpr int kFrontEnds = 32;
  constexpr double kDayMs = 4000.0;       // one compressed diurnal cycle
  constexpr double kPeakRatePerS = 900.0;  // midday
  constexpr double kTroughFrac = 0.15;     // 3 a.m. rate as a fraction of peak
  constexpr int kHotObjects = 4096;
  constexpr int64_t kObjectBlocks = 64;
  Rng rng(config.seed);
  const ZipfTable popularity(kHotObjects, 0.9);
  ScenarioBuilder builder;
  const int64_t hot_span = std::min(footprint / 2, kHotObjects * kObjectBlocks);
  double now_ms = 0.0;
  for (int64_t i = 0; i < config.request_count; ++i) {
    // Thinning-free modulation: draw the gap at the instantaneous rate.
    const double phase = 2.0 * M_PI * now_ms / kDayMs;
    const double shape = 0.5 * (1.0 - std::cos(phase));  // 0 at trough, 1 at peak
    const double rate = kPeakRatePerS * (kTroughFrac + (1.0 - kTroughFrac) * shape);
    now_ms += rng.Exponential(1000.0 / rate);
    int64_t lba;
    int32_t blocks;
    IoType op = IoType::kRead;
    const double u = rng.NextDouble();
    if (u < 0.85) {  // hot object fetch
      const int64_t object = popularity.Sample(rng);
      lba = object * (hot_span / kHotObjects);
      blocks = 8;
    } else if (u < 0.95) {  // cold long-tail asset
      blocks = 128;
      lba = hot_span + rng.UniformInt(footprint - hot_span - blocks);
    } else {  // log/session write
      op = IoType::kWrite;
      blocks = 16;
      lba = hot_span + rng.UniformInt(footprint - hot_span - blocks);
    }
    builder.Add(now_ms, lba, blocks, op, static_cast<int32_t>(rng.UniformInt(kFrontEnds)));
  }
  return builder.Finish();
}

// backup_scan: client 0 marches a 128 KB-chunk sequential read over the
// whole address space at a steady cadence; client 1 is the trickle of
// random foreground traffic the backup competes with.
std::vector<TraceRecord> GenBackupScan(const ScenarioConfig& config, int64_t footprint) {
  constexpr int32_t kScanBlocks = 256;
  constexpr double kScanGapMs = 2.0;
  constexpr double kForegroundRatePerS = 25.0;
  Rng rng(config.seed);
  ScenarioBuilder builder;
  // ~19 scans : 1 foreground request at the default cadence.
  const int64_t foreground =
      std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(config.request_count) *
                                                kForegroundRatePerS * kScanGapMs / 1000.0));
  const int64_t scans = config.request_count - foreground;
  int64_t cursor = 0;
  double scan_ms = 0.0;
  for (int64_t i = 0; i < scans; ++i) {
    builder.Add(scan_ms, cursor, kScanBlocks, IoType::kRead, 0);
    cursor += kScanBlocks;
    if (cursor + kScanBlocks > footprint) {
      cursor = 0;  // next pass (incremental backups re-walk the device)
    }
    scan_ms += kScanGapMs;
  }
  double fg_ms = 0.0;
  for (int64_t i = 0; i < foreground; ++i) {
    fg_ms += rng.Exponential(1000.0 / kForegroundRatePerS);
    const bool write = rng.Bernoulli(0.4);
    builder.Add(fg_ms, rng.UniformInt(footprint - 16), 16,
                write ? IoType::kWrite : IoType::kRead, 1);
  }
  return builder.Finish();
}

}  // namespace

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> kNames = {"media_server", "oltp_burst", "diurnal_web",
                                                  "backup_scan"};
  return kNames;
}

bool IsScenarioName(const std::string& name) {
  const auto& names = ScenarioNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

int64_t ScenarioFootprintBlocks(const std::string& name) {
  if (name == "media_server") {
    return 8 * kGiBBlocks;
  }
  if (name == "oltp_burst") {
    return kGiBBlocks + kGiBBlocks / 16;  // database + log region
  }
  if (name == "diurnal_web") {
    return 4 * kGiBBlocks;
  }
  if (name == "backup_scan") {
    return 2 * kGiBBlocks;
  }
  MSTK_CHECK(false, "unknown scenario name");
  return 0;
}

ParsedTrace GenerateScenario(const std::string& name, const ScenarioConfig& config) {
  MSTK_CHECK(config.request_count > 0, "scenario request_count must be > 0");
  const int64_t footprint = ScenarioFootprintBlocks(name);
  ParsedTrace out;
  if (name == "media_server") {
    out.records = GenMediaServer(config, footprint);
  } else if (name == "oltp_burst") {
    out.records = GenOltpBurst(config, footprint);
  } else if (name == "diurnal_web") {
    out.records = GenDiurnalWeb(config, footprint);
  } else if (name == "backup_scan") {
    out.records = GenBackupScan(config, footprint);
  } else {
    MSTK_CHECK(false, "unknown scenario name");
  }
  return out;
}

std::string ScenarioTraceBytes(const std::string& name, const ScenarioConfig& config) {
  return SerializeTrace(GenerateScenario(name, config).records);
}

}  // namespace trace
}  // namespace mstk
