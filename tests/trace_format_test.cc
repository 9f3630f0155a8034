// v1 trace front-end: format parser/writer rejection suite, the DiskSim and
// old-ASCII importer, scaling transforms, arrival-control replay, scenario
// zoo, and the fidelity reporter (including the oltp_burst-vs-tpcc
// "differs" demonstration the CI gate relies on).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/trace/fidelity.h"
#include "src/trace/format.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/tpcc_like.h"

namespace mstk {
namespace trace {
namespace {

TraceRecord Rec(int64_t ts_us, int64_t lba, int32_t blocks, IoType op, int32_t client) {
  TraceRecord r;
  r.timestamp_us = ts_us;
  r.lba = lba;
  r.blocks = blocks;
  r.op = op;
  r.client = client;
  return r;
}

std::vector<TraceRecord> SampleRecords() {
  return {Rec(0, 100, 8, IoType::kRead, 0), Rec(250, 98304, 16, IoType::kWrite, 1),
          Rec(250, 0, 1, IoType::kRead, 2), Rec(1000, 4096, 256, IoType::kRead, 0)};
}

TEST(TraceFormatTest, RoundTripPreservesRecords) {
  const std::vector<TraceRecord> records = SampleRecords();
  const std::string bytes = SerializeTrace(records);
  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(bytes, &parsed, &error)) << error;
  EXPECT_EQ(parsed.version, kTraceVersion);
  EXPECT_EQ(parsed.records, records);
}

TEST(TraceFormatTest, SerializeIsByteCanonical) {
  // parse -> write reproduces the exact input bytes: the property the CI
  // scenario-regeneration `cmp` gate depends on.
  const std::string bytes = SerializeTrace(SampleRecords());
  ParsedTrace parsed;
  ASSERT_TRUE(ParseTrace(bytes, &parsed, nullptr));
  EXPECT_EQ(SerializeTrace(parsed.records), bytes);
}

TEST(TraceFormatTest, HeaderCarriesMagicAndVersion) {
  const std::string bytes = SerializeTrace({});
  EXPECT_EQ(bytes.rfind("MSTKTRACE 1\n", 0), 0u);
}

TEST(TraceFormatTest, CommentsAndBlankLinesAreIgnored) {
  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace("MSTKTRACE 1\n# comment\n\n0 8 4 R 0\n# tail\n", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.records.size(), 1u);
}

struct RejectCase {
  const char* label;
  const char* doc;
  const char* want_error;  // substring of the reported error
};

TEST(TraceFormatTest, ParserRejectionSuite) {
  const RejectCase kCases[] = {
      {"empty document", "", "missing MSTKTRACE header"},
      {"truncated header", "MSTKTRACE", "bad magic"},
      {"truncated magic", "MSTK 1\n", "bad magic"},
      {"missing version", "MSTKTRACE \n", "malformed version"},
      {"bad version", "MSTKTRACE 99\n", "unsupported version 99"},
      {"version trailing garbage", "MSTKTRACE 1 x\n", "malformed version"},
      {"short record", "MSTKTRACE 1\n0 8 4 R\n", "malformed client"},
      {"overlong record", "MSTKTRACE 1\n0 8 4 R 0 7\n", "trailing garbage"},
      {"non-numeric timestamp", "MSTKTRACE 1\nzero 8 4 R 0\n", "malformed timestamp_us"},
      {"negative timestamp", "MSTKTRACE 1\n-5 8 4 R 0\n", "negative timestamp_us"},
      {"non-monotonic timestamps", "MSTKTRACE 1\n100 8 4 R 0\n99 8 4 R 0\n",
       "timestamp_us runs backwards"},
      {"out-of-range lba", "MSTKTRACE 1\n0 -1 4 R 0\n", "out-of-range lba"},
      {"zero blocks", "MSTKTRACE 1\n0 8 0 R 0\n", "out-of-range blocks"},
      {"oversized blocks", "MSTKTRACE 1\n0 8 1048577 R 0\n", "out-of-range blocks"},
      {"bad op", "MSTKTRACE 1\n0 8 4 X 0\n", "malformed op"},
      {"negative client", "MSTKTRACE 1\n0 8 4 R -1\n", "out-of-range client"},
      {"end overflows int64", "MSTKTRACE 1\n0 9223372036854775807 8 R 0\n", "end overflows"},
      // A field that runs into another character fails as itself.
      {"unit suffix on timestamp", "MSTKTRACE 1\n12ms 8 4 R 0\n", "malformed timestamp_us"},
      {"hex lba", "MSTKTRACE 1\n0 0x10 8 R 0\n", "malformed lba"},
      {"suffix on blocks", "MSTKTRACE 1\n0 8 4x R 0\n", "malformed blocks"},
      {"suffix on op", "MSTKTRACE 1\n0 8 4 RW 0\n", "malformed op"},
      // A numeric field starts with a digit, or with '-' and a digit: no
      // '+', and no whitespace but the spaces and tabs between fields.
      {"signed version", "MSTKTRACE +1\n", "malformed version"},
      {"signed timestamp", "MSTKTRACE 1\n+0 8 4 R 0\n", "malformed timestamp_us"},
      {"signed lba", "MSTKTRACE 1\n0 +8 4 R 0\n", "malformed lba"},
      {"signed blocks", "MSTKTRACE 1\n0 8 +4 R 0\n", "malformed blocks"},
      {"signed client", "MSTKTRACE 1\n0 8 4 R +0\n", "malformed client"},
      {"vertical tab before lba", "MSTKTRACE 1\n0 \v8 4 R 0\n", "malformed lba"},
  };
  for (const RejectCase& c : kCases) {
    ParsedTrace parsed;
    std::string error;
    EXPECT_FALSE(ParseTrace(c.doc, &parsed, &error)) << c.label;
    EXPECT_NE(error.find(c.want_error), std::string::npos)
        << c.label << ": got error '" << error << "'";
    EXPECT_NE(error.find("line "), std::string::npos) << c.label << ": no line number";
    EXPECT_TRUE(parsed.records.empty()) << c.label << ": partial document survived";
  }
}

TEST(TraceFormatTest, ErrorNamesTheFailingLine) {
  ParsedTrace parsed;
  std::string error;
  ASSERT_FALSE(ParseTrace("MSTKTRACE 1\n0 8 4 R 0\n10 8 4 Q 0\n", &parsed, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(TraceFormatTest, WriterRejectsWhatTheParserRejects) {
  TraceWriter writer;
  EXPECT_FALSE(writer.Append(Rec(-1, 0, 1, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(0, -1, 1, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(0, 0, 0, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(0, 0, 1, IoType::kRead, -1)));
  EXPECT_FALSE(writer.Append(Rec(0, INT64_MAX, 8, IoType::kRead, 0)));  // end overflows
  ASSERT_TRUE(writer.Append(Rec(100, 0, 1, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(99, 0, 1, IoType::kRead, 0)));  // runs backwards
  EXPECT_EQ(writer.records_written(), 1);
}

TEST(TraceFormatTest, RequestConversionRoundTrips) {
  const std::vector<TraceRecord> records = SampleRecords();
  ParsedTrace parsed;
  parsed.records = records;
  const std::vector<Request> requests = ToRequests(parsed);
  ASSERT_EQ(requests.size(), records.size());
  EXPECT_DOUBLE_EQ(requests[1].arrival_ms, 0.25);
  EXPECT_EQ(requests[1].lbn, 98304);
  EXPECT_EQ(requests[1].type, IoType::kWrite);
  const std::vector<TraceRecord> back = FromRequests(requests, /*client=*/7);
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].timestamp_us, records[i].timestamp_us) << i;
    EXPECT_EQ(back[i].lba, records[i].lba) << i;
    EXPECT_EQ(back[i].blocks, records[i].blocks) << i;
    EXPECT_EQ(back[i].op, records[i].op) << i;
    EXPECT_EQ(back[i].client, 7) << i;
  }
}

TEST(TraceTest, MissingFileReportsError) {
  ParsedTrace parsed;
  std::string error;
  EXPECT_FALSE(ReadTraceFile("/nonexistent/mstk.trace", &parsed, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceTest, WriteReadRoundTrip) {
  // An old mstk ASCII trace imports to the same records, rounded to whole
  // microseconds. devno filters DiskSim records only, so all are kept.
  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(ImportTrace("# arrival_ms R|W lbn block_count\n0.0004 R 100 8\n0.25 W 98304 16\n"
                          "0.25 R 0 1\n0.9996 R 4096 256\n",
                          /*devno=*/3, &parsed, &error))
      << error;
  std::vector<TraceRecord> expected = SampleRecords();
  for (TraceRecord& r : expected) {
    r.client = 0;
  }
  EXPECT_EQ(parsed.records, expected);
}

TEST(TraceTest, ReadRejectsBadRecords) {
  // The last line of each document is bad; the old readers accepted the
  // unsorted, oversized and overflowing ones.
  const RejectCase kCases[] = {
      {"bad op", "# header\n1.0 R 100 8\n2.0 X 100 8\n", "line 3: malformed old mstk ASCII"},
      {"MSTKTRACE header", "MSTKTRACE 1\n", "line 1: unrecognized record"},
      {"MSTKTRACE record", "0 8 4 R 0\n", "line 1: malformed DiskSim"},
      {"mixed formats", "0 R 8 4\n0.1 0 8 4 1\n", "line 2: malformed old mstk ASCII"},
      {"DiskSim runs backwards", "0.2 0 8 4 1\n0.1 0 8 4 1\n", "line 2: timestamp_us runs back"},
      {"non-hex DiskSim flags", "0 0 8 4 1\n0.1 0 8 4 1g\n", "line 2: malformed DiskSim"},
      {"signed DiskSim flags", "0 0 8 4 -1\n", "line 1: malformed DiskSim"},
      {"signed DiskSim blkno", "0 0 +8 4 1\n", "line 1: malformed DiskSim"},
      {"filtered device runs backwards", "0.2 0 8 4 1\n0.1 1 8 4 1\n", "line 2: timestamp_us"},
      {"ASCII runs backwards", "5 R 8 4\n4.9 W 8 4\n", "line 2: timestamp_us runs backwards"},
      {"oversized blocks", "0 R 8 1048577\n", "line 1: out-of-range blocks"},
      {"int32-overflowing blocks", "0 R 8 4294967297\n", "line 1: out-of-range blocks"},
      {"end overflows int64", "0 R 9223372036854775807 8\n", "line 1: out-of-range lba + blocks"},
      {"negative arrival", "-1 R 8 4\n", "line 1: out-of-range arrival"},
      {"non-finite arrival", "nan R 8 4\n", "line 1: out-of-range arrival"},
  };
  for (const RejectCase& c : kCases) {
    ParsedTrace parsed;
    std::string error;
    EXPECT_FALSE(ImportTrace(c.doc, /*devno=*/0, &parsed, &error)) << c.label;
    EXPECT_NE(error.find(c.want_error), std::string::npos)
        << c.label << ": got error '" << error << "'";
    EXPECT_TRUE(parsed.records.empty()) << c.label << ": partial document survived";
  }
}

TEST(TraceTest, DiskSimFormatParses) {
  const std::string disksim =
      "# DiskSim ascii trace\n0.000000 0 1000 8 1\n0.015000 0 2000 16 0\n"
      "0.020000 1 3000 8 1\n0.031000 0 64 4 3\n0.04 0 128 8 1a\n0.05 0 256 8 1B\n";
  ParsedTrace all;
  std::string error;
  ASSERT_TRUE(ImportTrace(disksim, -1, &all, &error)) << error;
  // Milliseconds become microseconds; flags is hex and bit 0 means read.
  EXPECT_EQ(all.records, std::vector<TraceRecord>({Rec(0, 1000, 8, IoType::kRead, 0),
                                                   Rec(15, 2000, 16, IoType::kWrite, 0),
                                                   Rec(20, 3000, 8, IoType::kRead, 0),
                                                   Rec(31, 64, 4, IoType::kRead, 0),
                                                   Rec(40, 128, 8, IoType::kWrite, 0),
                                                   Rec(50, 256, 8, IoType::kRead, 0)}));
  ParsedTrace dev0;
  ASSERT_TRUE(ImportTrace(disksim, 0, &dev0, &error)) << error;
  EXPECT_EQ(dev0.records.size(), 5u);
  ParsedTrace dev1;
  ASSERT_TRUE(ImportTrace(disksim, 1, &dev1, &error)) << error;
  EXPECT_EQ(dev1.records, std::vector<TraceRecord>({all.records[2]}));
}

TEST(TraceTest, DiskSimFormatRejectsGarbage) {
  ParsedTrace parsed;
  std::string error;
  EXPECT_FALSE(ImportTrace("0.0 0 1000 8 1\n0.1 0 -5 8 1\n", -1, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(TraceTransformTest, TimeWarpCompressesGaps) {
  const std::vector<TraceRecord> warped = TimeWarp(SampleRecords(), 2.0);
  ASSERT_EQ(warped.size(), 4u);
  EXPECT_EQ(warped[0].timestamp_us, 0);
  EXPECT_EQ(warped[1].timestamp_us, 125);
  EXPECT_EQ(warped[3].timestamp_us, 500);
  // Slowing down doubles timestamps, saturating instead of overflowing.
  EXPECT_EQ(TimeWarp(SampleRecords(), 0.5)[3].timestamp_us, 2000);
  EXPECT_EQ(TimeWarp({Rec(INT64_MAX, 0, 1, IoType::kRead, 0)}, 0.5)[0].timestamp_us,
            int64_t{9200000000000000000});
}

TEST(TraceTransformTest, RemapScaleFitsFootprintOnDevice) {
  const std::vector<TraceRecord> mapped = RemapToCapacity(SampleRecords(), 1024, RemapMode::kScale);
  ASSERT_EQ(mapped.size(), 4u);
  for (const TraceRecord& r : mapped) {
    EXPECT_GE(r.lba, 0);
    EXPECT_LE(r.lba + r.blocks, 1024) << "extent escaped the device";
  }
  // Relative order of addresses is preserved by the linear rescale.
  EXPECT_LT(mapped[2].lba, mapped[0].lba);
  EXPECT_LT(mapped[0].lba, mapped[3].lba);
  EXPECT_LT(mapped[3].lba, mapped[1].lba);
}

TEST(TraceTransformTest, RemapScaleLeavesFittingTracesAlone) {
  const std::vector<TraceRecord> records = SampleRecords();
  EXPECT_EQ(RemapToCapacity(records, 1 << 20, RemapMode::kScale), records);
}

TEST(TraceTransformTest, MultiplyClientsInterleavesDistinctClients) {
  const int64_t capacity = 1 << 20;
  const std::vector<TraceRecord> records = SampleRecords();
  const std::vector<TraceRecord> multiplied = MultiplyClients(records, 3, capacity);
  ASSERT_EQ(multiplied.size(), records.size() * 3);
  // Copies of one source record share its timestamp; client ids are disjoint
  // per copy (3 original clients -> copy k adds k*3).
  EXPECT_EQ(multiplied[0].timestamp_us, multiplied[1].timestamp_us);
  EXPECT_EQ(multiplied[0].client, 0);
  EXPECT_EQ(multiplied[1].client, 3);
  EXPECT_EQ(multiplied[2].client, 6);
  int64_t last_us = 0;
  for (const TraceRecord& r : multiplied) {
    EXPECT_GE(r.timestamp_us, last_us);
    last_us = r.timestamp_us;
    EXPECT_GE(r.lba, 0);
    EXPECT_LE(r.lba + r.blocks, capacity);
  }
}

TEST(TraceTransformTest, MultipliedClientIdsStayInInt32) {
  const int64_t capacity = 1 << 20;
  std::vector<TraceRecord> records = SampleRecords();
  // Largest client 2^30 - 1: two copies use ids up to exactly INT32_MAX.
  records[0].client = (1 << 30) - 1;
  ASSERT_TRUE(MultipliedClientsFit(records, 2));
  EXPECT_FALSE(MultipliedClientsFit(records, 3));
  const std::vector<TraceRecord> multiplied = MultiplyClients(records, 2, capacity);
  EXPECT_EQ(multiplied[0].client, (1 << 30) - 1);
  EXPECT_EQ(multiplied[1].client, INT32_MAX);
  // One valid record with client 1.5e9 cannot be doubled.
  records[0].client = 1500000000;
  EXPECT_TRUE(MultipliedClientsFit(records, 1));
  EXPECT_FALSE(MultipliedClientsFit(records, 2));
  EXPECT_DEATH((void)MultiplyClients(records, 2, capacity), "client ids overflow");
  // The largest valid client id, alone: its id count is 2^31.
  records[0].client = INT32_MAX;
  EXPECT_TRUE(MultipliedClientsFit(records, 1));
  EXPECT_EQ(MultiplyClients(records, 1, capacity)[0].client, INT32_MAX);
}

TEST(TraceReplayTest, ArrivalModeNamesParse) {
  ArrivalMode mode = ArrivalMode::kClosed;
  EXPECT_TRUE(ParseArrivalMode("open", &mode));
  EXPECT_EQ(mode, ArrivalMode::kOpen);
  EXPECT_TRUE(ParseArrivalMode("closed", &mode));
  EXPECT_EQ(mode, ArrivalMode::kClosed);
  EXPECT_TRUE(ParseArrivalMode("hybrid", &mode));
  EXPECT_EQ(mode, ArrivalMode::kHybrid);
  EXPECT_FALSE(ParseArrivalMode("poisson", &mode));
}

std::vector<Request> ReplayableRequests(int count) {
  std::vector<Request> requests;
  Rng rng(7);
  double now_ms = 0.0;
  for (int i = 0; i < count; ++i) {
    Request req;
    req.id = i;
    req.lbn = rng.UniformInt(100000);
    req.block_count = 8;
    req.arrival_ms = now_ms;
    now_ms += rng.Exponential(1.0);
    requests.push_back(req);
  }
  return requests;
}

TEST(TraceReplayTest, OpenReplayCompletesEveryRequest) {
  MemsDevice device;
  FcfsScheduler sched;
  const ExperimentResult result = mstk::Run(&device, &sched, ReplayableRequests(200));
  EXPECT_EQ(result.metrics.completed(), 200);
  EXPECT_GT(result.MeanResponseMs(), 0.0);
}

TEST(TraceReplayTest, ClosedReplayBoundsOutstandingRequests) {
  MemsDevice device;
  FcfsScheduler sched;
  RunConfig config;
  config.mode = ArrivalMode::kClosed;
  config.window = 4;
  const ExperimentResult result = mstk::Run(&device, &sched, ReplayableRequests(200), config);
  EXPECT_EQ(result.metrics.completed(), 200);
  // A window-4 closed loop can never queue more than 4 requests.
  EXPECT_LE(result.metrics.queue_depth().max(), 4.0);
}

TEST(TraceReplayTest, HybridWaitsForRecordedArrivals) {
  // With a window no smaller than the request count, hybrid degenerates to
  // open: recorded arrivals are the only throttle, so it must reproduce the
  // open run bit for bit and the makespan must span the trace duration.
  const std::vector<Request> requests = ReplayableRequests(100);
  MemsDevice device;
  SptfScheduler sched(&device);
  const ExperimentResult open = mstk::Run(&device, &sched, requests);
  RunConfig config;
  config.mode = ArrivalMode::kHybrid;
  config.window = static_cast<int>(requests.size());
  const ExperimentResult result = mstk::Run(&device, &sched, requests, config);
  EXPECT_EQ(result.metrics.completed(), 100);
  EXPECT_GE(result.makespan_ms, requests.back().arrival_ms);
  EXPECT_EQ(result.MeanResponseMs(), open.MeanResponseMs());
  EXPECT_EQ(result.makespan_ms, open.makespan_ms);
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    EXPECT_EQ(result.metrics.phase(phase).mean(), open.metrics.phase(phase).mean())
        << PhaseName(phase);
  }
}

TEST(ScenarioZooTest, LibraryIsDeterministic) {
  ScenarioConfig config;
  config.request_count = 300;
  for (const std::string& name : ScenarioNames()) {
    EXPECT_TRUE(IsScenarioName(name));
    const std::string once = ScenarioTraceBytes(name, config);
    EXPECT_EQ(once, ScenarioTraceBytes(name, config)) << name;
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(ParseTrace(once, &parsed, &error)) << name << ": " << error;
    EXPECT_EQ(parsed.records.size(), 300u) << name;
    const int64_t footprint = ScenarioFootprintBlocks(name);
    for (const TraceRecord& r : parsed.records) {
      EXPECT_LE(r.lba + r.blocks, footprint) << name;
    }
  }
  EXPECT_FALSE(IsScenarioName("tpcc"));
}

TEST(ScenarioZooTest, SeedChangesTheTrace) {
  ScenarioConfig a;
  a.request_count = 300;
  ScenarioConfig b = a;
  b.seed = 2;
  EXPECT_NE(ScenarioTraceBytes("oltp_burst", a), ScenarioTraceBytes("oltp_burst", b));
}

TEST(FidelityTest, IdenticalStreamsMatchEverywhere) {
  ParsedTrace parsed;
  parsed.records = SampleRecords();
  const std::vector<Request> requests = ToRequests(parsed);
  const FidelityReport report = CompareStreams("a", requests, "b", requests);
  EXPECT_EQ(report.arrival_interval.distance, 0.0);
  EXPECT_EQ(report.request_size.distance, 0.0);
  EXPECT_EQ(report.spatial_locality.distance, 0.0);
  EXPECT_FALSE(report.AnyDiffers());
}

TEST(FidelityTest, OltpBurstDiffersFromSteadyTpcc) {
  // The CI gate's demonstration: the bursty oltp_burst scenario shares
  // tpcc's size and locality regime but not its steady Poisson arrivals, so
  // the reporter must flag the arrival-interval marginal (and only rely on
  // that to say the traces differ).
  ScenarioConfig config;
  config.request_count = 1000;
  ParsedTrace scenario = GenerateScenario("oltp_burst", config);
  TpccLikeConfig tpcc;
  tpcc.request_count = 1000;
  tpcc.capacity_blocks = ScenarioFootprintBlocks("oltp_burst");
  Rng rng(1);
  const std::vector<Request> synthetic = GenerateTpccLike(tpcc, rng);
  const FidelityReport report =
      CompareStreams("oltp_burst", ToRequests(scenario), "tpcc", synthetic);
  EXPECT_TRUE(report.arrival_interval.differs)
      << "distance " << report.arrival_interval.distance;
  EXPECT_TRUE(report.AnyDiffers());
}

TEST(FidelityTest, JsonHasStableKeys) {
  ParsedTrace parsed;
  parsed.records = SampleRecords();
  const std::vector<Request> requests = ToRequests(parsed);
  const FidelityReport report = CompareStreams("lhs_label", requests, "rhs_label", requests);
  JsonWriter json;
  report.AppendJson(json);
  const std::string doc = json.TakeString();
  for (const char* key : {"\"lhs\"", "\"rhs\"", "\"differs_threshold\"", "\"any_differs\"",
                          "\"marginals\"", "\"arrival_interval_us\"", "\"request_size_blocks\"",
                          "\"spatial_locality_blocks\"", "\"histogram\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace trace
}  // namespace mstk
