#include "src/fs/mini_fs.h"

#include <algorithm>
#include <cassert>

#include "src/sim/check.h"
#include "src/sim/units.h"

namespace mstk {
namespace {

int64_t BytesToBlocks(int64_t bytes) {
  return std::max<int64_t>(1, (bytes + kBlockBytes - 1) / kBlockBytes);
}

}  // namespace

MiniFs::MiniFs(const MiniFsConfig& config, StorageDevice* device)
    : config_(config),
      device_(device),
      allocator_([&] {
        AllocatorConfig ac = config.allocator;
        if (ac.capacity_blocks == 0) {
          ac.capacity_blocks = device->CapacityBlocks() -
                               (config.journal ? config.journal_blocks : 0);
        }
        return ac;
      }()) {
  MSTK_CHECK(device_ != nullptr, "MiniFs needs a device");
  journal_base_ = allocator_.capacity();
  // Pre-allocate the directory blocks so they land per policy (center pool
  // under kBipartite, spread across groups under kGrouped).
  directory_lbns_.reserve(static_cast<size_t>(config_.directory_count));
  for (int32_t d = 0; d < config_.directory_count; ++d) {
    const int64_t lbn = allocator_.AllocMetadata(d);
    MSTK_CHECK(lbn >= 0, "no space for directory blocks");
    directory_lbns_.push_back(lbn);
  }
}

int64_t MiniFs::DirectoryLbn(FileId id) const {
  return directory_lbns_[static_cast<size_t>(
      id % static_cast<int64_t>(directory_lbns_.size()))];
}


TimeMs MiniFs::Io(IoType type, int64_t lbn, int32_t blocks, TimeMs now_ms) {
  Request req;
  req.type = type;
  req.lbn = config_.base_lbn + lbn;
  req.block_count = blocks;
  return device_->ServiceRequest(req, now_ms);
}

TimeMs MiniFs::JournalAppend(TimeMs now_ms) {
  if (!config_.journal) {
    return 0.0;
  }
  const int64_t lbn = journal_base_ + journal_cursor_;
  journal_cursor_ = (journal_cursor_ + 1) % config_.journal_blocks;
  return Io(IoType::kWrite, lbn, 1, now_ms);
}

TimeMs MiniFs::WriteMetadata(const File& file, FileId id, TimeMs now_ms) {
  double cost = JournalAppend(now_ms);
  cost += Io(IoType::kWrite, file.inode_lbn, 1, now_ms + cost);
  cost += Io(IoType::kWrite, DirectoryLbn(id), 1, now_ms + cost);
  return cost;
}

TimeMs MiniFs::Create(FileId id, int64_t size_bytes, TimeMs now_ms) {
  if (Exists(id)) {
    return -1.0;
  }
  const int64_t blocks = BytesToBlocks(size_bytes);
  File file;
  file.inode_lbn = allocator_.AllocMetadata(id);
  if (file.inode_lbn < 0) {
    return -1.0;
  }
  file.extents = allocator_.AllocData(blocks, id);
  if (file.extents.empty()) {
    allocator_.Free(PhysExtent{file.inode_lbn, 1});
    return -1.0;
  }
  file.blocks = blocks;

  double cost = WriteMetadata(file, id, now_ms);
  stats_.metadata_ms += cost;
  double data_cost = 0.0;
  for (const PhysExtent& e : file.extents) {
    data_cost += Io(IoType::kWrite, e.lbn, e.blocks, now_ms + cost + data_cost);
  }
  stats_.data_ms += data_cost;
  stats_.data_extents += static_cast<int64_t>(file.extents.size());
  ++stats_.creates;
  ++stats_.files;
  ++stats_.writes;
  files_.emplace(id, std::move(file));
  return cost + data_cost;
}

TimeMs MiniFs::Read(FileId id, TimeMs now_ms) {
  return ReadAt(id, 0, -1, now_ms);
}

TimeMs MiniFs::ReadAt(FileId id, int64_t offset_blocks, int32_t blocks, TimeMs now_ms) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return -1.0;
  }
  const File& file = it->second;
  int64_t remaining = blocks < 0 ? file.blocks - offset_blocks
                                 : std::min<int64_t>(blocks, file.blocks - offset_blocks);
  if (remaining <= 0) {
    return -1.0;
  }
  // Inode lookup first.
  double cost = Io(IoType::kRead, file.inode_lbn, 1, now_ms);
  stats_.metadata_ms += cost;

  double data_cost = 0.0;
  int64_t skip = offset_blocks;
  for (const PhysExtent& e : file.extents) {
    if (remaining <= 0) {
      break;
    }
    if (skip >= e.blocks) {
      skip -= e.blocks;
      continue;
    }
    const int64_t take = std::min<int64_t>(e.blocks - skip, remaining);
    data_cost += Io(IoType::kRead, e.lbn + skip, static_cast<int32_t>(take),
                    now_ms + cost + data_cost);
    remaining -= take;
    skip = 0;
  }
  stats_.data_ms += data_cost;
  ++stats_.reads;
  return cost + data_cost;
}

TimeMs MiniFs::Append(FileId id, int64_t size_bytes, TimeMs now_ms) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return -1.0;
  }
  File& file = it->second;
  const int64_t blocks = BytesToBlocks(size_bytes);
  std::vector<PhysExtent> extra = allocator_.AllocData(blocks, id);
  if (extra.empty()) {
    return -1.0;
  }
  double cost = WriteMetadata(file, id, now_ms);
  stats_.metadata_ms += cost;
  double data_cost = 0.0;
  for (const PhysExtent& e : extra) {
    data_cost += Io(IoType::kWrite, e.lbn, e.blocks, now_ms + cost + data_cost);
  }
  stats_.data_ms += data_cost;
  stats_.data_extents += static_cast<int64_t>(extra.size());
  file.blocks += blocks;
  file.extents.insert(file.extents.end(), extra.begin(), extra.end());
  ++stats_.writes;
  return cost + data_cost;
}

TimeMs MiniFs::Remove(FileId id, TimeMs now_ms) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return -1.0;
  }
  File file = std::move(it->second);
  files_.erase(it);
  // Directory + journal updates; the inode block itself just gets freed.
  double cost = JournalAppend(now_ms);
  cost += Io(IoType::kWrite, DirectoryLbn(id), 1, now_ms + cost);
  stats_.metadata_ms += cost;

  allocator_.Free(PhysExtent{file.inode_lbn, 1});
  for (const PhysExtent& e : file.extents) {
    allocator_.Free(e);
  }
  stats_.data_extents -= static_cast<int64_t>(file.extents.size());
  ++stats_.removes;
  --stats_.files;
  return cost;
}

int64_t MiniFs::FileBlocks(FileId id) const {
  auto it = files_.find(id);
  return it == files_.end() ? -1 : it->second.blocks;
}

int64_t MiniFs::FileExtents(FileId id) const {
  auto it = files_.find(id);
  return it == files_.end() ? -1 : static_cast<int64_t>(it->second.extents.size());
}

}  // namespace mstk
