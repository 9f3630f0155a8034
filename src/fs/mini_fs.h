// A minimal extent-based file system model over a StorageDevice.
//
// Just enough structure to study §5's OS-level placement question with
// realistic metadata traffic: every file has an inode block and data
// extents from the Allocator; creates/removes also rewrite a directory
// block; an optional journal turns each metadata mutation into a small
// synchronous append (§6.3). Operations return the device time they
// consumed, so aging and policy comparisons fall out directly.
#ifndef MSTK_SRC_FS_MINI_FS_H_
#define MSTK_SRC_FS_MINI_FS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/storage_device.h"
#include "src/fs/allocator.h"
#include "src/sim/units.h"

namespace mstk {

struct MiniFsConfig {
  AllocatorConfig allocator;
  bool journal = false;       // synchronous metadata journaling
  int64_t journal_blocks = 16384;  // circular journal region (from the end)
  int32_t directory_count = 64;    // directory blocks (hashed by file id)
  // Partition offset: the volume's LBN 0 maps to this device LBN, so a
  // small volume can sit at the device's mechanical sweet spot.
  int64_t base_lbn = 0;
};

struct MiniFsStats {
  int64_t files = 0;
  int64_t creates = 0;
  int64_t removes = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  TimeMs metadata_ms = 0.0;  // inode + directory + journal device time
  TimeMs data_ms = 0.0;      // file-content device time
  int64_t data_extents = 0;  // fragmentation proxy: extents across live files
};

class MiniFs {
 public:
  using FileId = int64_t;

  // `device` is borrowed. The allocator capacity defaults to the device's.
  MiniFs(const MiniFsConfig& config, StorageDevice* device);

  // All operations return consumed device time (ms) and advance `now_ms`
  // bookkeeping internally. Operations on missing files return -1.
  double Create(FileId id, int64_t size_bytes, TimeMs now_ms);
  double Read(FileId id, TimeMs now_ms);              // whole-file read
  double ReadAt(FileId id, int64_t offset_blocks, int32_t blocks, TimeMs now_ms);
  double Append(FileId id, int64_t size_bytes, TimeMs now_ms);
  double Remove(FileId id, TimeMs now_ms);

  bool Exists(FileId id) const { return files_.find(id) != files_.end(); }
  int64_t FileBlocks(FileId id) const;
  // Extents held by one file (fragmentation inspection).
  int64_t FileExtents(FileId id) const;

  const MiniFsStats& stats() const { return stats_; }
  const Allocator& allocator() const { return allocator_; }

 private:
  struct File {
    int64_t inode_lbn;
    std::vector<PhysExtent> extents;
    int64_t blocks;
  };

  // Issues one device request at volume-relative `lbn` (partition offset
  // applied); returns the service time.
  double Io(IoType type, int64_t lbn, int32_t blocks, TimeMs now_ms);
  double WriteMetadata(const File& file, FileId id, TimeMs now_ms);
  double JournalAppend(TimeMs now_ms);
  int64_t DirectoryLbn(FileId id) const;

  MiniFsConfig config_;
  StorageDevice* device_;
  Allocator allocator_;
  std::unordered_map<FileId, File> files_;
  MiniFsStats stats_;
  int64_t journal_base_ = 0;
  int64_t journal_cursor_ = 0;
  std::vector<int64_t> directory_lbns_;
};

}  // namespace mstk

#endif  // MSTK_SRC_FS_MINI_FS_H_
