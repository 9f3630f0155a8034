// Media-server scenario (§5): a server stores many large media streams plus
// a small, hot metadata/index pool on a MEMS-based storage device. Shows
// how the bipartite placements exploit the sled's physics: hot metadata in
// the spring-neutral center (short X *and* Y excursions), streams at the
// edges where positioning time barely matters against multi-ms transfers.
//
// Run: ./build/examples/media_server_layout
#include <cstdio>

#include "src/layout/layout_policy.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

int main() {
  using namespace mstk;

  MemsDevice device;
  const MemsGeometry& geom = device.geometry();

  // 16 MB of metadata (32k blocks), 512 streams x 400 KB = 200 MB.
  const int64_t kMeta = 32768;
  const int64_t kStreams = 512;  // divides kMeta evenly for the interleave
  const int32_t kStreamBlocks = 800;
  const int64_t kLarge = kStreams * kStreamBlocks;

  // "Simple" here means what an aged filesystem actually produces: metadata
  // chunks interleaved with streams across the whole device, no locality
  // management. (A freshly-packed linear layout would be accidentally
  // optimal for this tiny metadata pool.)
  ExtentLayout simple("simple-aged");
  {
    const int64_t stride = geom.capacity_blocks() / kStreams;
    const int64_t meta_chunk = kMeta / kStreams;
    for (int64_t s = 0; s < kStreams; ++s) {
      simple.Append(s * stride + kStreamBlocks, meta_chunk);
    }
    for (int64_t s = 0; s < kStreams; ++s) {
      simple.Append(s * stride, kStreamBlocks);
    }
  }
  LayoutSpec spec;
  spec.geometry = &geom;
  spec.hot_blocks = kMeta;
  spec.cold_blocks = kLarge;
  const ExtentLayout organ = FindLayoutPolicy("organ-pipe")->Build(spec);
  const ExtentLayout subregioned = FindLayoutPolicy("subregioned")->Build(spec);
  const ExtentLayout columnar = FindLayoutPolicy("columnar")->Build(spec);

  std::printf("Media server on MEMS-based storage (90%% metadata lookups, 10%% stream reads)\n\n");
  std::printf("%-14s %14s %14s %16s\n", "layout", "metadata_ms", "stream_ms",
              "stream_MB_per_s");
  for (const LayoutMap* layout :
       {static_cast<const LayoutMap*>(&simple), static_cast<const LayoutMap*>(&organ),
        static_cast<const LayoutMap*>(&subregioned),
        static_cast<const LayoutMap*>(&columnar)}) {
    device.Reset();
    Rng rng(3);
    double meta_total = 0.0;
    double stream_total = 0.0;
    int64_t metas = 0;
    int64_t streams = 0;
    for (int i = 0; i < 20000; ++i) {
      Request req;
      req.type = IoType::kRead;
      double access = 0.0;
      const bool is_stream = rng.Bernoulli(0.10);
      const int64_t logical =
          is_stream ? kMeta + rng.UniformInt(kStreams) * kStreamBlocks
                    : rng.UniformInt(kMeta / 8) * 8;
      const int32_t blocks = is_stream ? kStreamBlocks : 8;
      for (const PhysExtent& extent : layout->MapExtent(logical, blocks)) {
        req.lbn = extent.lbn;
        req.block_count = extent.blocks;
        access += device.ServiceRequest(req, 0.0);
      }
      if (is_stream) {
        stream_total += access;
        ++streams;
      } else {
        meta_total += access;
        ++metas;
      }
    }
    const double stream_ms = stream_total / static_cast<double>(streams);
    std::printf("%-14s %14.3f %14.3f %16.1f\n", layout->name().c_str(),
                meta_total / static_cast<double>(metas), stream_ms,
                kStreamBlocks * 512.0 / 1e6 / (stream_ms / 1e3));
  }

  std::printf(
      "\nMetadata lookups dominate the request count, so placing them in the\n"
      "centermost subregion (low spring force, short X and Y strokes) buys\n"
      "the biggest win; the streams lose almost nothing at the edges because\n"
      "a 400 KB transfer dwarfs any positioning delay (§5.2, Fig 10).\n");
  return 0;
}
