#include "src/trace/format.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/sim/check.h"
#include "src/sim/units.h"

namespace mstk {
namespace trace {
namespace {

// Sanity bound on a single access: 1 Mi blocks = 512 MiB. A length beyond
// this is a corrupt record, not a workload.
constexpr int32_t kMaxRecordBlocks = 1 << 20;

void AppendRecordLine(std::string* out, const TraceRecord& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " %" PRId64 " %d %c %d\n", r.timestamp_us, r.lba,
                r.blocks, r.op == IoType::kRead ? 'R' : 'W', r.client);
  out->append(buf);
}

// Parses a base-10 int64 token starting at `*pos`; advances past it. Returns
// false on empty/overflowing/non-numeric tokens. The token starts with a
// digit, or with '-' and a digit: strtoll alone would also skip leading
// whitespace (\v, \f and \r among it) and accept a '+'.
bool ParseInt(const std::string& line, size_t* pos, int64_t* value) {
  const char* begin = line.c_str() + *pos;
  const char first_digit = *begin == '-' ? begin[1] : *begin;
  if (first_digit < '0' || first_digit > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || errno == ERANGE) {
    return false;
  }
  *value = static_cast<int64_t>(v);
  *pos += static_cast<size_t>(end - begin);
  return true;
}

// Record fields end at a space, a tab or the end of the line, so "4x"
// fails as its own field, not as the next one. What follows the last
// field, the client, is trailing garbage.
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

// Whole-token numeric parses for the importer: trailing characters fail.
bool ParseToken(const std::string& token, int64_t* value) {
  size_t pos = 0;
  return ParseInt(token, &pos, value) && pos == token.size();
}

bool ParseToken(const std::string& token, double* value) {
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

// A DiskSim flags field: an unsigned hex bitfield such as "1a". Tokens hold
// no spaces, so a sign is the only prefix strtoll would wrongly accept.
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

// Reads the file at `path` and hands its bytes to `parse`; errors gain the
// path as a prefix.
template <typename Parse>
bool ParseFile(const std::string& path, std::string* error, Parse parse) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!parse(buffer.str())) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace

const char* RecordError(const TraceRecord& r, int64_t last_timestamp_us) {
  if (r.timestamp_us < 0) return "negative timestamp_us";
  if (r.timestamp_us < last_timestamp_us) {
    return "timestamp_us runs backwards (trace must be arrival-sorted)";
  }
  if (r.lba < 0) return "out-of-range lba (must be >= 0)";
  if (r.blocks <= 0 || r.blocks > kMaxRecordBlocks) {
    return "out-of-range blocks (must be in [1, 2^20])";
  }
  if (r.lba > INT64_MAX - r.blocks) return "out-of-range lba + blocks (end overflows int64)";
  if (r.client < 0) return "out-of-range client id";
  if (r.op != IoType::kRead && r.op != IoType::kWrite) return "malformed op (expected R or W)";
  return nullptr;
}

TraceWriter::TraceWriter() {
  out_ = std::string(kTraceMagic) + " " + std::to_string(kTraceVersion) + "\n" +
         "# timestamp_us lba blocks op client\n";
}

bool TraceWriter::Append(const TraceRecord& record) {
  if (RecordError(record, last_timestamp_us_) != nullptr) {
    return false;
  }
  AppendRecordLine(&out_, record);
  last_timestamp_us_ = record.timestamp_us;
  ++records_written_;
  return true;
}

std::string SerializeTrace(const std::vector<TraceRecord>& records) {
  TraceWriter writer;
  for (const TraceRecord& record : records) {
    MSTK_CHECK(writer.Append(record), "SerializeTrace given an invalid record stream");
  }
  return writer.bytes();
}

bool ParseTrace(const std::string& bytes, ParsedTrace* out, std::string* error) {
  out->records.clear();
  out->version = 0;
  std::istringstream in(bytes);
  std::string line;
  int64_t line_no = 0;

  // Header: "MSTKTRACE <version>" on the very first line.
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

    if (record.timestamp_us < 0) {
      return Fail(error, "negative timestamp_us", line_no, out);
    }
    if (record.timestamp_us < last_timestamp_us) {
      return Fail(error, "timestamp_us runs backwards (trace must be arrival-sorted)", line_no,
                  out);
    }
    if (record.lba < 0) {
      return Fail(error, "out-of-range lba (must be >= 0)", line_no, out);
    }
    if (blocks64 <= 0 || blocks64 > kMaxRecordBlocks) {
      return Fail(error, "out-of-range blocks (must be in [1, 2^20])", line_no, out);
    }
    if (record.lba > INT64_MAX - blocks64) {
      return Fail(error, "out-of-range lba + blocks (end overflows int64)", line_no, out);
    }
    if (client64 < 0 || client64 > INT32_MAX) {
      return Fail(error, "out-of-range client id", line_no, out);
    }
    record.blocks = static_cast<int32_t>(blocks64);
    record.client = static_cast<int32_t>(client64);
    last_timestamp_us = record.timestamp_us;
    out->records.push_back(record);
  }
  return true;
}

bool ReadTraceFile(const std::string& path, ParsedTrace* out, std::string* error) {
  return ParseFile(path, error,
                   [&](const std::string& bytes) { return ParseTrace(bytes, out, error); });
}

bool ImportTrace(const std::string& bytes, int devno, ParsedTrace* out, std::string* error) {
  // Latest arrival accepted; keeps MsToUs inside int64.
  constexpr TimeMs kMaxArrivalMs = 9e15;
  out->records.clear();
  out->version = kTraceVersion;
  std::istringstream in(bytes);
  std::string line;
  int64_t line_no = 0;
  size_t width = 0;  // fields per record: 5 DiskSim, 4 old mstk ASCII
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
    // Both formats hold the arrival (ms), address and length in fields 0, 2 and 3.
    const bool parsed = f.size() == width && ParseToken(f[0], &arrival_ms) &&
                        ParseToken(f[2], &record.lba) && ParseToken(f[3], &blocks) &&
                        (disksim ? ParseToken(f[1], &dev) && ParseHexToken(f[4], &flags)
                                 : f[1] == "R" || f[1] == "W");
    if (!parsed) {
      return Fail(error, disksim ? "malformed DiskSim record" : "malformed old mstk ASCII record",
                  line_no, out);
    }
    if (!(arrival_ms >= 0.0 && arrival_ms <= kMaxArrivalMs)) {  // also rejects NaN
      return Fail(error, "out-of-range arrival time", line_no, out);
    }
    record.timestamp_us = MsToUs(arrival_ms);
    record.op = (disksim ? (flags & 1) != 0 : f[1] == "R") ? IoType::kRead : IoType::kWrite;
    // Saturate rather than wrap, so RecordError sees out-of-int32 lengths.
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

bool ImportTraceFile(const std::string& path, int devno, ParsedTrace* out, std::string* error) {
  return ParseFile(path, error,
                   [&](const std::string& bytes) { return ImportTrace(bytes, devno, out, error); });
}

std::vector<Request> ToRequests(const ParsedTrace& trace) {
  std::vector<Request> requests;
  requests.reserve(trace.records.size());
  for (const TraceRecord& record : trace.records) {
    Request req;
    req.id = static_cast<int64_t>(requests.size());
    req.type = record.op;
    req.lbn = record.lba;
    req.block_count = record.blocks;
    req.arrival_ms = UsToMs(record.timestamp_us);
    requests.push_back(req);
  }
  return requests;
}

std::vector<TraceRecord> FromRequests(const std::vector<Request>& requests, int32_t client) {
  std::vector<TraceRecord> records;
  records.reserve(requests.size());
  int64_t last_us = 0;
  for (const Request& req : requests) {
    TraceRecord record;
    record.timestamp_us = MsToUs(req.arrival_ms);
    // Guard against double rounding jitter undoing sort order by a tick.
    if (record.timestamp_us < last_us) {
      record.timestamp_us = last_us;
    }
    last_us = record.timestamp_us;
    record.lba = req.lbn;
    record.blocks = req.block_count;
    record.op = req.type;
    record.client = client;
    records.push_back(record);
  }
  return records;
}

}  // namespace trace
}  // namespace mstk
