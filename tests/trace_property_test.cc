// Randomized properties of the v1 trace front-end: the parse/write
// round-trip is byte-exact on arbitrary valid streams, the transforms
// preserve their invariants under random inputs, replay is a pure function
// of its arguments, both parsers survive mutated documents, and the parsers
// and the record writer agree with a reference built on the C library.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
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

// The reference implementation: the MSTKTRACE writer and both parsers as
// they were written on snprintf, istringstream, getline and strtoll. The
// library's versions read the same bytes through std::string_view lines
// and <charconv>, and must agree with these on every verdict, error
// message, record and byte.
namespace reference {

void AppendRecordLine(std::string* out, const TraceRecord& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " %" PRId64 " %d %c %d\n", r.timestamp_us, r.lba,
                r.blocks, r.op == IoType::kRead ? 'R' : 'W', r.client);
  out->append(buf);
}

std::string SerializeTrace(const std::vector<TraceRecord>& records) {
  std::string out = std::string(kTraceMagic) + " " + std::to_string(kTraceVersion) + "\n" +
                    "# timestamp_us lba blocks op client\n";
  for (const TraceRecord& record : records) {
    AppendRecordLine(&out, record);
  }
  return out;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool ParseInt(const std::string& line, size_t* pos, int64_t* value) {
  const char* begin = line.c_str() + *pos;
  const char* digits = *begin == '-' ? begin + 1 : begin;
  if (!IsDigit(digits[0]) || (digits[0] == '0' && (digits != begin || IsDigit(digits[1])))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (errno == ERANGE) {
    return false;
  }
  *value = static_cast<int64_t>(v);
  *pos += static_cast<size_t>(end - begin);
  return true;
}

bool AtFieldEnd(const std::string& line, size_t pos) {
  return pos == line.size() || line[pos] == ' ' || line[pos] == '\t';
}

bool ParseField(const std::string& line, size_t* pos, int64_t* value) {
  return ParseInt(line, pos, value) && AtFieldEnd(line, *pos);
}

bool SkipSpaces(const std::string& line, size_t* pos) {
  const size_t start = *pos;
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
  return *pos > start;
}

bool Fail(std::string* error, const std::string& message, int64_t line_no, ParsedTrace* out) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + message;
  }
  out->records.clear();
  return false;
}

bool ParseToken(const std::string& token, int64_t* value) {
  size_t pos = 0;
  return ParseInt(token, &pos, value) && pos == token.size();
}

bool ParseToken(const std::string& token, double* value) {
  if (!IsDigit(token[0] == '-' ? token[1] : token[0]) ||
      token.find_first_of("xX") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return *end == '\0';
}

bool ParseHexToken(const std::string& token, int64_t* value) {
  if (token[0] == '-' || token[0] == '+') {
    return false;
  }
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 16);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *value = static_cast<int64_t>(v);
  return true;
}

bool ParseTrace(const std::string& bytes, ParsedTrace* out, std::string* error) {
  out->records.clear();
  out->version = 0;
  std::istringstream in(bytes);
  std::string line;
  int64_t line_no = 0;

  if (!std::getline(in, line)) {
    return Fail(error, "empty document (missing MSTKTRACE header)", 1, out);
  }
  ++line_no;
  {
    const size_t magic_len = std::strlen(kTraceMagic);
    if (line.compare(0, magic_len, kTraceMagic) != 0 || line.size() <= magic_len ||
        line[magic_len] != ' ') {
      return Fail(error, "bad magic: expected '" + std::string(kTraceMagic) + " <version>'",
                  line_no, out);
    }
    size_t pos = magic_len + 1;
    int64_t version = 0;
    if (!ParseInt(line, &pos, &version) || pos != line.size()) {
      return Fail(error, "malformed version field", line_no, out);
    }
    if (version != kTraceVersion) {
      return Fail(error,
                  "unsupported version " + std::to_string(version) + " (expected " +
                      std::to_string(kTraceVersion) + ")",
                  line_no, out);
    }
    out->version = static_cast<int>(version);
  }

  int64_t last_timestamp_us = -1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    TraceRecord record;
    size_t pos = 0;
    int64_t blocks64 = 0;
    int64_t client64 = 0;
    SkipSpaces(line, &pos);
    if (!ParseField(line, &pos, &record.timestamp_us)) {
      return Fail(error, "malformed timestamp_us field", line_no, out);
    }
    if (!SkipSpaces(line, &pos) || !ParseField(line, &pos, &record.lba)) {
      return Fail(error, "malformed lba field", line_no, out);
    }
    if (!SkipSpaces(line, &pos) || !ParseField(line, &pos, &blocks64)) {
      return Fail(error, "malformed blocks field", line_no, out);
    }
    if (!SkipSpaces(line, &pos) || pos >= line.size() ||
        (line[pos] != 'R' && line[pos] != 'W') || !AtFieldEnd(line, pos + 1)) {
      return Fail(error, "malformed op field (expected R or W)", line_no, out);
    }
    record.op = line[pos] == 'R' ? IoType::kRead : IoType::kWrite;
    ++pos;
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &client64)) {
      return Fail(error, "malformed client field", line_no, out);
    }
    SkipSpaces(line, &pos);
    if (pos != line.size()) {
      return Fail(error, "trailing garbage after client field", line_no, out);
    }
    record.blocks = static_cast<int32_t>(std::clamp<int64_t>(blocks64, 0, INT32_MAX));
    record.client = client64 >= 0 && client64 <= INT32_MAX ? static_cast<int32_t>(client64) : -1;
    if (const char* reason = RecordError(record, last_timestamp_us)) {
      return Fail(error, reason, line_no, out);
    }
    last_timestamp_us = record.timestamp_us;
    out->records.push_back(record);
  }
  return true;
}

bool ImportTrace(const std::string& bytes, int devno, ParsedTrace* out, std::string* error) {
  constexpr TimeMs kMaxArrivalMs = 9e15;
  out->records.clear();
  out->version = kTraceVersion;
  std::istringstream in(bytes);
  std::string line;
  int64_t line_no = 0;
  size_t width = 0;
  int64_t last_timestamp_us = -1;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    const std::vector<std::string> f{std::istream_iterator<std::string>(tokens), {}};
    if (f.empty() || f[0][0] == '#') {
      continue;
    }
    if (width == 0) {
      width = f.size();
      if (width != 4 && width != 5) {
        return Fail(error, "unrecognized record (expected DiskSim or old mstk ASCII)", line_no,
                    out);
      }
    }
    const bool disksim = width == 5;
    TraceRecord record;
    TimeMs arrival_ms = 0.0;
    int64_t dev = 0;
    int64_t blocks = 0;
    int64_t flags = 0;
    const bool parsed = f.size() == width && ParseToken(f[0], &arrival_ms) &&
                        ParseToken(f[2], &record.lba) && ParseToken(f[3], &blocks) &&
                        (disksim ? ParseToken(f[1], &dev) && ParseHexToken(f[4], &flags)
                                 : f[1] == "R" || f[1] == "W");
    if (!parsed) {
      return Fail(error, disksim ? "malformed DiskSim record" : "malformed old mstk ASCII record",
                  line_no, out);
    }
    if (std::signbit(arrival_ms) || !(arrival_ms <= kMaxArrivalMs)) {
      return Fail(error, "out-of-range arrival time", line_no, out);
    }
    record.timestamp_us = MsToUs(arrival_ms);
    record.op = (disksim ? (flags & 1) != 0 : f[1] == "R") ? IoType::kRead : IoType::kWrite;
    record.blocks = static_cast<int32_t>(std::clamp<int64_t>(blocks, 0, INT32_MAX));
    if (const char* reason = RecordError(record, last_timestamp_us)) {
      return Fail(error, reason, line_no, out);
    }
    last_timestamp_us = record.timestamp_us;
    if (!disksim || devno < 0 || dev == devno) {
      out->records.push_back(record);
    }
  }
  return true;
}

}  // namespace reference

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

constexpr int kTraceSeeds = 4;
constexpr int kFuzzMutants = 10000;

// The fuzz loops' seeds: the head of each checked-in trace, then a DiskSim
// and an old mstk ASCII trace for the importer.
std::vector<std::string> FuzzSeeds() {
  std::vector<std::string> seeds;
  for (const char* name : {"backup_scan", "diurnal_web", "media_server", "oltp_burst"}) {
    seeds.push_back(TraceHead(name, 200));
  }
  seeds.push_back(
      "# DiskSim ascii trace\n0.000000 0 1000 8 1\n0.015000 0 2000 16 0\n"
      "0.020000 1 3000 8 1\n0.031000 0 64 4 3\n0.04 0 128 8 1a\n0.05 0 256 8 1B\n");
  seeds.push_back("# arrival_ms R|W lbn block_count\n0.0004 R 100 8\n0.25 W 98304 16\n"
                  "0.25 R 0 1\n0.9996 R 4096 256\n");
  return seeds;
}

TEST(TraceParserFuzz, MutantsRejectWithALineOrRoundTrip) {
  // A regression guard: no mutant of these seeds found a fault when the
  // loop was written. The ASan job runs it, so a crash there is a finding.
  const std::vector<std::string> seeds = FuzzSeeds();
  for (int s = 0; s < kTraceSeeds; ++s) {
    ASSERT_EQ(seeds[static_cast<size_t>(s)].rfind("MSTKTRACE 1\n", 0), 0u) << s;
  }
  Rng rng(29);
  int accepted = 0;
  for (int i = 0; i < kFuzzMutants; ++i) {
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

// Both parsers give the reference's verdict, error message and records.
void ExpectReferenceResults(const std::string& doc) {
  ParsedTrace got;
  ParsedTrace want;
  std::string got_error;
  std::string want_error;
  ASSERT_EQ(ParseTrace(doc, &got, &got_error), reference::ParseTrace(doc, &want, &want_error))
      << "ParseTrace: '" << want_error << "'";
  ASSERT_EQ(got_error, want_error) << "ParseTrace";
  ASSERT_EQ(got.version, want.version) << "ParseTrace";
  ASSERT_EQ(got.records, want.records) << "ParseTrace";
  got_error.clear();
  want_error.clear();
  ASSERT_EQ(ImportTrace(doc, -1, &got, &got_error),
            reference::ImportTrace(doc, -1, &want, &want_error))
      << "ImportTrace: '" << want_error << "'";
  ASSERT_EQ(got_error, want_error) << "ImportTrace";
  ASSERT_EQ(got.records, want.records) << "ImportTrace";
}

TEST(TraceParserFuzz, ParsersMatchTheReference) {
  using namespace std::string_literals;
  // Line and field boundaries the C library drew implicitly: CR and NUL
  // bytes, a missing last newline, a look-ahead at the end of a line, and
  // the int64 extremes.
  const struct {
    const char* label;
    std::string doc;
  } kEdges[] = {
      {"empty document", ""},
      {"lone newline", "\n"},
      {"header without newline", "MSTKTRACE 1"},
      {"CRLF header", "MSTKTRACE 1\r\n"},
      {"version 0 before a digit", "MSTKTRACE 0\n5 8 4 R 0\n"},
      {"record without newline", "MSTKTRACE 1\n0 8 4 R 0"},
      {"CRLF record", "MSTKTRACE 1\n0 8 4 R 0\r\n"},
      {"NUL after lba", "MSTKTRACE 1\n0 8\0 4 R 0\n"s},
      {"NUL after timestamp", "MSTKTRACE 1\n0\0 8 4 R 0\n"s},
      {"NUL after client", "MSTKTRACE 1\n0 8 4 R 0\0\n"s},
      {"blank last line", "MSTKTRACE 1\n0 8 4 R 0\n1 8 4 R 0\n\n"},
      {"lone 0 last line", "MSTKTRACE 1\n0 8 4 R 0\n0"},
      {"lone minus client", "MSTKTRACE 1\n0 8 4 R 0\n0 8 4 R -"},
      {"lone minus timestamp", "MSTKTRACE 1\n- 8 4 R 0\n"},
      {"int64 minimum lba", "MSTKTRACE 1\n0 -9223372036854775808 4 R 0\n"},
      {"below int64 lba", "MSTKTRACE 1\n0 -9223372036854775809 4 R 0\n"},
      {"above int64 timestamp", "MSTKTRACE 1\n9223372036854775808 8 4 R 0\n"},
      {"int64 bounds", "MSTKTRACE 1\n9223372036854775807 9223372036854775806 1 W 2147483647\n"},
      {"above int64 version", "MSTKTRACE 9223372036854775808\n"},
      {"int64 minimum version", "MSTKTRACE -9223372036854775808\n"},
      {"DiskSim lba bounds", "0.5 0 9223372036854775806 1 1\n0.6 0 9223372036854775808 1 1\n"},
      {"old ASCII lba bounds", "0.5 R 9223372036854775806 1\n0.6 W -9223372036854775808 1\n"},
      {"CRLF DiskSim", "0.5 0 8 4 1\r\n"},
      {"NUL in DiskSim", "0.5 0 8\0 4 1\n"s},
  };
  for (const auto& edge : kEdges) {
    ASSERT_NO_FATAL_FAILURE(ExpectReferenceResults(edge.doc)) << edge.label;
  }
  // The fuzz loop's mutants, then mutants of traces at the int64 and int32
  // bounds, where an inserted or flipped digit overflows a field.
  Rng rng(29);
  const std::vector<std::string> seeds = FuzzSeeds();
  for (int i = 0; i < kFuzzMutants; ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectReferenceResults(Mutate(rng, seeds))) << "mutant " << i;
  }
  std::vector<std::string> bound_seeds;
  bound_seeds.push_back(
      "MSTKTRACE 1\n0 9223372036854775806 1 R 2147483647\n"
      "922337203685477580 9223371036854775807 1048576 W 2147483646\n"
      "9223372036854775807 0 1 R 0\n");
  bound_seeds.push_back(
      "0.5 0 9223372036854775806 1 1\n9000000000000000 1 92233720368547758 8 0\n");
  for (int i = 0; i < kFuzzMutants / 5; ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectReferenceResults(Mutate(rng, bound_seeds)))
        << "bound mutant " << i;
  }
}

// Valid records over the whole range of each field, each often at its
// bound: timestamps from 0 or up to INT64_MAX, lba up to INT64_MAX - blocks,
// blocks up to 2^20, clients up to INT32_MAX.
std::vector<TraceRecord> BoundaryRecords(Rng& rng, int count, bool late) {
  const auto pick = [&rng](int64_t lo, int64_t hi) {
    switch (rng.UniformInt(3)) {
      case 0:
        return lo;
      case 1:
        return hi;
      default:
        return lo + rng.UniformInt(hi - lo + 1);
    }
  };
  constexpr int64_t kMaxGapUs = 1000;
  std::vector<TraceRecord> records;
  int64_t now_us = late ? INT64_MAX - count * kMaxGapUs : 0;
  for (int i = 0; i < count; ++i) {
    TraceRecord r;
    now_us += rng.UniformInt(kMaxGapUs);
    r.timestamp_us = late && i + 1 == count ? INT64_MAX : now_us;
    r.blocks = static_cast<int32_t>(pick(1, 1 << 20));
    r.lba = pick(0, INT64_MAX - r.blocks);
    r.op = rng.Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
    r.client = static_cast<int32_t>(pick(0, INT32_MAX));
    records.push_back(r);
  }
  return records;
}

TEST(TraceRoundTripProperty, SerializeWritesTheReferenceBytes) {
  Rng rng(31);
  for (int round = 0; round < 400; ++round) {
    const std::vector<TraceRecord> records =
        round % 4 == 0 ? RandomRecords(rng, 1 + static_cast<int>(rng.UniformInt(100)))
                       : BoundaryRecords(rng, 1 + static_cast<int>(rng.UniformInt(100)),
                                         round % 2 == 1);
    const std::string bytes = SerializeTrace(records);
    ASSERT_EQ(bytes, reference::SerializeTrace(records)) << "round " << round;
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(ParseTrace(bytes, &parsed, &error)) << "round " << round << ": " << error;
    ASSERT_EQ(parsed.records, records) << "round " << round;
  }
}

}  // namespace
}  // namespace trace
}  // namespace mstk
