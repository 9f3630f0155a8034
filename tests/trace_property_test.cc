// Randomized properties of the v1 trace front-end: the parse/write
// round-trip is byte-exact on arbitrary valid streams, the transforms
// preserve their invariants under random inputs, replay is a pure function
// of its arguments, and both parsers survive mutated documents.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/trace/format.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"

namespace mstk {
namespace trace {
namespace {

// An arbitrary valid record stream: sorted integer-µs arrivals, in-range
// fields, a mix of ops and clients.
std::vector<TraceRecord> RandomRecords(Rng& rng, int count) {
  std::vector<TraceRecord> records;
  records.reserve(static_cast<size_t>(count));
  int64_t now_us = 0;
  for (int i = 0; i < count; ++i) {
    TraceRecord r;
    now_us += rng.UniformInt(5000);  // ties included
    r.timestamp_us = now_us;
    r.lba = rng.UniformInt(int64_t{1} << 40);
    r.blocks = static_cast<int32_t>(1 + rng.UniformInt(1024));
    r.op = rng.Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
    r.client = static_cast<int32_t>(rng.UniformInt(16));
    records.push_back(r);
  }
  return records;
}

TEST(TraceRoundTripProperty, WriteParseWriteIsByteIdentical) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    const std::vector<TraceRecord> records =
        RandomRecords(rng, 1 + static_cast<int>(rng.UniformInt(200)));
    const std::string bytes = SerializeTrace(records);
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(ParseTrace(bytes, &parsed, &error)) << "round " << round << ": " << error;
    ASSERT_EQ(parsed.records, records) << "round " << round;
    // replay(write(parse(t))) == t at the byte level.
    ASSERT_EQ(SerializeTrace(parsed.records), bytes) << "round " << round;
  }
}

TEST(TraceRoundTripProperty, RequestConversionPreservesStream) {
  Rng rng(13);
  for (int round = 0; round < 20; ++round) {
    const std::vector<TraceRecord> records = RandomRecords(rng, 100);
    ParsedTrace parsed;
    parsed.records = records;
    const std::vector<TraceRecord> back = FromRequests(ToRequests(parsed));
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      // Integer µs -> double ms -> integer µs is exact for these magnitudes.
      ASSERT_EQ(back[i].timestamp_us, records[i].timestamp_us) << round << "/" << i;
      ASSERT_EQ(back[i].lba, records[i].lba);
      ASSERT_EQ(back[i].blocks, records[i].blocks);
      ASSERT_EQ(back[i].op, records[i].op);
    }
  }
}

TEST(TraceTransformProperty, TimeWarpKeepsOrderAndCount) {
  Rng rng(17);
  for (const double factor : {0.25, 0.5, 1.0, 2.0, 7.5, 16.0}) {
    const std::vector<TraceRecord> records = RandomRecords(rng, 300);
    const std::vector<TraceRecord> warped = TimeWarp(records, factor);
    ASSERT_EQ(warped.size(), records.size());
    int64_t last_us = 0;
    for (size_t i = 0; i < warped.size(); ++i) {
      ASSERT_GE(warped[i].timestamp_us, last_us) << "factor " << factor;
      last_us = warped[i].timestamp_us;
      ASSERT_EQ(warped[i].lba, records[i].lba);  // addresses untouched
    }
  }
}

TEST(TraceTransformProperty, RemapScaleStaysOnDevice) {
  Rng rng(19);
  for (const int64_t capacity : {int64_t{1} << 10, int64_t{1} << 20, int64_t{1} << 33}) {
    const std::vector<TraceRecord> records = RandomRecords(rng, 300);
    const std::vector<TraceRecord> mapped = RemapToCapacity(records, capacity, RemapMode::kScale);
    ASSERT_EQ(mapped.size(), records.size());  // kScale never drops
    for (const TraceRecord& r : mapped) {
      ASSERT_GE(r.lba, 0);
      ASSERT_LE(r.lba + r.blocks, capacity);
    }
    // The serialized remap is still a valid document (monotone, in-range).
    ParsedTrace parsed;
    ASSERT_TRUE(ParseTrace(SerializeTrace(mapped), &parsed, nullptr));
  }
}

TEST(TraceTransformProperty, MultiplyClientsStaysValid) {
  Rng rng(23);
  const int64_t capacity = int64_t{1} << 24;
  for (const int factor : {1, 2, 5, 8}) {
    const std::vector<TraceRecord> records = RandomRecords(rng, 200);
    const std::vector<TraceRecord> multiplied = MultiplyClients(records, factor, capacity);
    ASSERT_EQ(multiplied.size(), records.size() * static_cast<size_t>(factor));
    int64_t last_us = 0;
    for (const TraceRecord& r : multiplied) {
      ASSERT_GE(r.timestamp_us, last_us);
      last_us = r.timestamp_us;
      ASSERT_GE(r.lba, 0);
      ASSERT_LE(r.lba + r.blocks, capacity);
      ASSERT_GE(r.client, 0);
    }
    ParsedTrace parsed;
    ASSERT_TRUE(ParseTrace(SerializeTrace(multiplied), &parsed, nullptr));
  }
}

TEST(TraceReplayProperty, ReplayIsAPureFunction) {
  // Same (trace, mode, window) -> identical results, run after run, for
  // every arrival mode. This is the cell-level form of the sweep
  // determinism gate.
  ScenarioConfig config;
  config.request_count = 400;
  ParsedTrace scenario = GenerateScenario("backup_scan", config);
  MemsDevice probe;
  scenario.records =
      RemapToCapacity(scenario.records, probe.CapacityBlocks(), RemapMode::kScale);
  const std::vector<Request> requests = ToRequests(scenario);
  for (const ArrivalMode mode :
       {ArrivalMode::kOpen, ArrivalMode::kClosed, ArrivalMode::kHybrid}) {
    RunConfig replay;
    replay.mode = mode;
    double mean_ms[2];
    double makespan_ms[2];
    for (int run = 0; run < 2; ++run) {
      MemsDevice device;
      SptfScheduler sched(&device);
      const ExperimentResult result = mstk::Run(&device, &sched, requests, replay);
      EXPECT_EQ(result.metrics.completed(), 400) << ArrivalModeName(mode);
      mean_ms[run] = result.MeanResponseMs();
      makespan_ms[run] = result.makespan_ms;
    }
    EXPECT_EQ(mean_ms[0], mean_ms[1]) << ArrivalModeName(mode);
    EXPECT_EQ(makespan_ms[0], makespan_ms[1]) << ArrivalModeName(mode);
  }
}

TEST(TraceScenarioProperty, ScenariosSerializeCanonically) {
  // Every scenario at several (count, seed) points satisfies the writer's
  // invariants and round-trips byte-identically — the property behind the
  // checked-in library's `cmp` regeneration gate.
  for (const std::string& name : ScenarioNames()) {
    for (const uint64_t seed : {1ULL, 2ULL, 99ULL}) {
      ScenarioConfig config;
      config.request_count = 250;
      config.seed = seed;
      const std::string bytes = ScenarioTraceBytes(name, config);
      ParsedTrace parsed;
      std::string error;
      ASSERT_TRUE(ParseTrace(bytes, &parsed, &error)) << name << ": " << error;
      ASSERT_EQ(SerializeTrace(parsed.records), bytes) << name << " seed " << seed;
    }
  }
}

// The first `max_lines` lines of a checked-in trace.
std::string TraceHead(const std::string& name, int max_lines) {
  std::ifstream in(std::string(MSTK_TRACES_DIR) + "/" + name + ".trace");
  std::string head;
  std::string line;
  for (int i = 0; i < max_lines && std::getline(in, line); ++i) {
    head += line + "\n";
  }
  return head;
}

// One to four edits of a random seed: a byte flip, a truncation, a splice
// with another seed, or an inserted separator or sign.
std::string Mutate(Rng& rng, const std::vector<std::string>& seeds) {
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(n)));
  };
  std::string doc = seeds[pick(seeds.size())];
  for (int64_t edits = 1 + rng.UniformInt(4); edits > 0; --edits) {
    switch (rng.UniformInt(4)) {
      case 0:
        if (!doc.empty()) doc[pick(doc.size())] ^= static_cast<char>(1 << rng.UniformInt(8));
        break;
      case 1:
        doc.resize(pick(doc.size() + 1));
        break;
      case 2: {
        const std::string& other = seeds[pick(seeds.size())];
        doc = doc.substr(0, pick(doc.size() + 1)) + other.substr(pick(other.size() + 1));
        break;
      }
      default: {
        static constexpr char kInserts[] = " \t\n\r\v\f+-#.0";
        doc.insert(pick(doc.size() + 1), 1, kInserts[pick(sizeof(kInserts) - 1)]);
        break;
      }
    }
  }
  return doc;
}

// True when `error` starts with "line N: ".
bool HasLinePrefix(const std::string& error) {
  const size_t colon = error.find(": ");
  return error.rfind("line ", 0) == 0 && colon != std::string::npos && colon > 5 &&
         error.find_first_not_of("0123456789", 5) == colon;
}

// A parser's verdict on any bytes: a rejection says "line N: " and leaves
// no records; an accepted document re-serializes and parses back to itself.
void CheckVerdict(bool accepted, const ParsedTrace& out, const std::string& error) {
  if (!accepted) {
    ASSERT_TRUE(HasLinePrefix(error)) << "error '" << error << "'";
    ASSERT_TRUE(out.records.empty());
    return;
  }
  ParsedTrace back;
  std::string back_error;
  ASSERT_TRUE(ParseTrace(SerializeTrace(out.records), &back, &back_error)) << back_error;
  ASSERT_EQ(back.records, out.records);
}

TEST(TraceParserFuzz, MutantsRejectWithALineOrRoundTrip) {
  // A regression guard: no mutant of these seeds found a fault when the
  // loop was written. The ASan job runs it, so a crash there is a finding.
  std::vector<std::string> seeds;
  for (const char* name : {"backup_scan", "diurnal_web", "media_server", "oltp_burst"}) {
    seeds.push_back(TraceHead(name, 200));
    ASSERT_EQ(seeds.back().rfind("MSTKTRACE 1\n", 0), 0u) << name;
  }
  seeds.push_back(
      "# DiskSim ascii trace\n0.000000 0 1000 8 1\n0.015000 0 2000 16 0\n"
      "0.020000 1 3000 8 1\n0.031000 0 64 4 3\n0.04 0 128 8 1a\n0.05 0 256 8 1B\n");
  seeds.push_back("# arrival_ms R|W lbn block_count\n0.0004 R 100 8\n0.25 W 98304 16\n"
                  "0.25 R 0 1\n0.9996 R 4096 256\n");
  Rng rng(29);
  int accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string doc = Mutate(rng, seeds);
    ParsedTrace out;
    std::string error;
    const bool parsed = ParseTrace(doc, &out, &error);
    accepted += parsed ? 1 : 0;
    ASSERT_NO_FATAL_FAILURE(CheckVerdict(parsed, out, error)) << "ParseTrace, mutant " << i;
    const bool imported = ImportTrace(doc, /*devno=*/-1, &out, &error);
    accepted += imported ? 1 : 0;
    ASSERT_NO_FATAL_FAILURE(CheckVerdict(imported, out, error)) << "ImportTrace, mutant " << i;
  }
  EXPECT_GT(accepted, 0);  // some mutants stay valid, so the round trip is exercised
}

}  // namespace
}  // namespace trace
}  // namespace mstk
