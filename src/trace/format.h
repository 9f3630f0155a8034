// On-disk block-trace format v1: the replay front-end's interchange format.
//
// The format is a versioned ASCII document (text survives code review, diffs,
// and `cmp`-based CI gates; every byte is canonical so regeneration is
// byte-identical across platforms):
//
//     MSTKTRACE 1
//     # timestamp_us lba blocks op client
//     0 123456 8 R 0
//     250 98304 16 W 1
//     ...
//
// Lines end at '\n' only. A '\r' is part of its line, so a CRLF document
// fails (its header as a malformed version). A last line without a '\n'
// still counts, and nothing follows a final '\n'. Line numbers in errors
// count every line, comments and blank lines included.
//
// Line 1 is the mandatory magic + format version. Every subsequent
// non-comment line is one blkparse-style record of exactly five
// single-space-separated fields:
//
//     timestamp_us  int64  arrival time in integer microseconds of virtual
//                          time; must be >= 0 and non-decreasing
//     lba           int64  first 512 B logical block of the access; >= 0,
//                          and lba + blocks must fit in int64
//     blocks        int32  access length in blocks; in [1, 2^20]
//     op            char   'R' (read) or 'W' (write)
//     client        int32  issuing-client id (fan-in multiplication and
//                          per-stream analysis); >= 0
//
// Timestamps are integers (not the simulator's double ms) precisely so that
// parse -> write round-trips are byte-identical: the CI scenario-library gate
// regenerates every checked-in trace and `cmp`s it against the repo copy.
//
// The parser is strict: a missing or malformed header, an unknown version, a
// short or overlong record, an out-of-range field, or a timestamp running
// backwards all fail the whole document with a line-numbered error. Replay
// experiments must never silently skip records — a half-parsed trace is a
// different workload.
#ifndef MSTK_SRC_TRACE_FORMAT_H_
#define MSTK_SRC_TRACE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/request.h"

namespace mstk {
namespace trace {

inline constexpr char kTraceMagic[] = "MSTKTRACE";
inline constexpr int kTraceVersion = 1;

// One blkparse-style trace record. See the format comment above for field
// semantics and validity ranges.
struct TraceRecord {
  int64_t timestamp_us = 0;
  int64_t lba = 0;
  int32_t blocks = 1;
  IoType op = IoType::kRead;
  int32_t client = 0;

  bool operator==(const TraceRecord& other) const {
    return timestamp_us == other.timestamp_us && lba == other.lba && blocks == other.blocks &&
           op == other.op && client == other.client;
  }
};

// A parsed trace document: format version plus the validated record stream.
struct ParsedTrace {
  int version = kTraceVersion;
  std::vector<TraceRecord> records;
};

// Returns nullptr when `record` may follow a record stamped
// `last_timestamp_us` in a v1 document (pass -1 for the first record), else
// the parser's message for the rule it breaks. TraceWriter and
// ImportTrace check every record with it.
const char* RecordError(const TraceRecord& record, int64_t last_timestamp_us);

// Serializes records into canonical v1 bytes. The writer enforces the same
// invariants the parser checks (monotonic timestamps, in-range fields):
// Append returns false and drops the record when it would produce an
// unparseable document. One writer produces exactly one document.
class TraceWriter {
 public:
  TraceWriter();

  // Validates and appends one record. Returns false (and appends nothing) if
  // the record is out of range or runs time backwards.
  bool Append(const TraceRecord& record);

  int64_t records_written() const { return records_written_; }

  // The canonical bytes of the document so far.
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
  int64_t records_written_ = 0;
  int64_t last_timestamp_us_ = -1;
};

// Convenience: serialize a whole record vector (must satisfy the writer's
// invariants; check-fails otherwise, since a caller handing over invalid
// records is a bug, not an input error).
std::string SerializeTrace(const std::vector<TraceRecord>& records);

// Strict parser. On success fills `out` and returns true; on any format
// violation returns false and sets `*error` to a line-numbered message.
// `out` is left empty on failure — no partial documents.
bool ParseTrace(const std::string& bytes, ParsedTrace* out, std::string* error);

// File wrapper around ParseTrace.
bool ReadTraceFile(const std::string& path, ParsedTrace* out, std::string* error);

// Importer for traces recorded in other ASCII formats (`mstk_trace
// convert`). The first record's field count picks the format; blank lines
// and '#' comments are skipped:
//   5 fields: DiskSim [GWP98], the paper's input format:
//             <arrival_ms> <devno> <blkno> <blocks> <flags>, where flags is
//             a hex bitfield whose bit 0 means read (DiskSim 4.0 manual,
//             CMU-PDL-08-101)
//   4 fields: old mstk ASCII: <arrival_ms> <R|W> <lbn> <blocks>
// Both give arrivals in milliseconds, rounded half-up to whole microseconds;
// records carry client 0.
// Every record, of any device, must pass RecordError, so an unsorted trace
// fails rather than being reordered. `devno` >= 0 keeps only that device's
// DiskSim records; -1 keeps all. Fails like ParseTrace: false, a
// line-numbered `*error`, `out` empty.
bool ImportTrace(const std::string& bytes, int devno, ParsedTrace* out, std::string* error);

// File wrapper around ImportTrace.
bool ImportTraceFile(const std::string& path, int devno, ParsedTrace* out, std::string* error);

// Converts records to simulator requests: timestamps become arrival_ms, ids
// are assigned in stream order. Client ids do not survive the conversion
// (Request has no client field); use transforms before converting when
// per-client handling matters.
std::vector<Request> ToRequests(const ParsedTrace& trace);

// Converts requests back to records (inverse of ToRequests up to timestamp
// quantization): arrival_ms rounds to the nearest microsecond, all records
// carry `client`.
std::vector<TraceRecord> FromRequests(const std::vector<Request>& requests, int32_t client = 0);

}  // namespace trace
}  // namespace mstk

#endif  // MSTK_SRC_TRACE_FORMAT_H_
