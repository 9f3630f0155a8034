#include "src/trace/transforms.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/sim/check.h"

namespace mstk {
namespace trace {
namespace {

// Footprint of the trace: one past the highest block touched.
int64_t Footprint(const std::vector<TraceRecord>& records) {
  int64_t footprint = 0;
  for (const TraceRecord& r : records) {
    footprint = std::max(footprint, r.lba + r.blocks);
  }
  return footprint;
}

// One past the largest client id (0 for an empty trace).
int64_t ClientsPerCopy(const std::vector<TraceRecord>& records) {
  int64_t clients = 0;
  for (const TraceRecord& r : records) {
    clients = std::max(clients, int64_t{r.client} + 1);
  }
  return clients;
}

}  // namespace

std::vector<TraceRecord> TimeWarp(const std::vector<TraceRecord>& records, double factor) {
  MSTK_CHECK(factor > 0.0, "TimeWarp factor must be > 0");
  std::vector<TraceRecord> warped = records;
  for (TraceRecord& r : warped) {
    // Round half-up; x/factor is monotone in x, so order survives warping.
    // Saturating below 2^63 keeps a huge timestamp from overflowing the cast.
    r.timestamp_us = static_cast<int64_t>(
        std::min(std::floor(static_cast<double>(r.timestamp_us) / factor + 0.5), 9.2e18));
  }
  return warped;
}

std::vector<TraceRecord> RemapToCapacity(const std::vector<TraceRecord>& records,
                                         int64_t capacity_blocks, RemapMode /*mode*/) {
  MSTK_CHECK(capacity_blocks > 0, "RemapToCapacity needs a positive capacity");
  std::vector<TraceRecord> out;
  out.reserve(records.size());
  const int64_t footprint = Footprint(records);
  for (TraceRecord r : records) {
    if (footprint > capacity_blocks) {
      // Linear rescale preserves relative distances; __int128 avoids the
      // lba * capacity overflow for large traces.
      r.lba = static_cast<int64_t>(static_cast<__int128>(r.lba) * capacity_blocks / footprint);
    }
    if (r.lba >= capacity_blocks) {
      r.lba = capacity_blocks - 1;
    }
    if (r.blocks > capacity_blocks) {
      r.blocks = static_cast<int32_t>(std::min<int64_t>(capacity_blocks, INT32_MAX));
    }
    if (r.lba + r.blocks > capacity_blocks) {
      r.lba = capacity_blocks - r.blocks;  // slide back inside, keep the length
    }
    out.push_back(r);
  }
  return out;
}

std::vector<TraceRecord> MultiplyClients(const std::vector<TraceRecord>& records, int factor,
                                         int64_t capacity_blocks) {
  MSTK_CHECK(factor >= 1, "MultiplyClients factor must be >= 1");
  MSTK_CHECK(capacity_blocks > 0, "MultiplyClients needs a positive capacity");
  MSTK_CHECK(MultipliedClientsFit(records, factor),
             "MultiplyClients: multiplied client ids overflow int32");
  const int64_t clients_per_copy = ClientsPerCopy(records);
  // Offset copies by equal shares of the device so working sets separate as
  // far as the capacity allows.
  const int64_t stride = capacity_blocks / factor;
  std::vector<TraceRecord> out;
  out.reserve(records.size() * static_cast<size_t>(factor));
  for (const TraceRecord& r : records) {
    for (int k = 0; k < factor; ++k) {
      TraceRecord copy = r;
      copy.client = static_cast<int32_t>(k * clients_per_copy + r.client);
      copy.lba = (r.lba + k * stride) % capacity_blocks;
      if (copy.blocks > capacity_blocks) {
        copy.blocks = static_cast<int32_t>(std::min<int64_t>(capacity_blocks, INT32_MAX));
      }
      if (copy.lba + copy.blocks > capacity_blocks) {
        copy.lba = capacity_blocks - copy.blocks;
      }
      out.push_back(copy);
    }
  }
  return out;
}

bool MultipliedClientsFit(const std::vector<TraceRecord>& records, int factor) {
  return factor * ClientsPerCopy(records) <= int64_t{INT32_MAX} + 1;
}

}  // namespace trace
}  // namespace mstk
