// §2.4.11 quantified from the other side: which host interface does a MEMS
// device need? The first-generation media rate (79.6 MB/s) already matches
// an Ultra2-era bus, and the G2/G3 projections blow far past Ultra320 —
// the interface, not the mechanics, becomes the streaming bottleneck.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/bus_device.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast);
  const TableWriter table(opts.csv);

  const struct {
    const char* name;
    MemsParams params;
  } generations[] = {
      {"G1", MemsParams::FirstGeneration()},
      {"G2", MemsParams::SecondGeneration()},
      {"G3", MemsParams::ThirdGeneration()},
  };
  const struct {
    const char* name;
    BusParams bus;
  } buses[] = {
      {"ultra2-80", BusParams::Ultra2()},
      {"ultra160", BusParams::Ultra160()},
      {"ultra320", BusParams::Ultra320()},
  };

  std::printf("Effective 1 MB streaming rate (MB/s) by device generation and bus\n");
  table.Row({"device", "media_MB_s", "ultra2-80", "ultra160", "ultra320"});
  for (const auto& gen : generations) {
    std::vector<std::string> row = {gen.name,
                                    Fmt("%.1f", gen.params.streaming_bytes_per_second() / 1e6)};
    for (const auto& bus : buses) {
      MemsDevice device(gen.params);
      BusDevice attached(bus.bus, &device);
      Request req;
      req.lbn = device.CapacityBlocks() / 4;
      req.block_count = 2048;  // 1 MB
      const double ms = attached.ServiceRequest(req, 0.0);
      row.push_back(Fmt("%.1f", 2048 * 512.0 / 1e6 / (ms / 1e3)));
    }
    table.Row(row);
  }

  std::printf("\n4 KB random access: bus overhead is a rounding error\n");
  table.Row({"device", "raw_ms", "ultra160_ms"});
  for (const auto& gen : generations) {
    MemsDevice raw(gen.params);
    MemsDevice inner(gen.params);
    BusDevice attached(BusParams::Ultra160(), &inner);
    Rng rng(3);
    double t_raw = 0.0;
    double t_bus = 0.0;
    const int64_t samples = opts.Scale(5000);
    for (int64_t i = 0; i < samples; ++i) {
      Request req;
      req.block_count = 8;
      req.lbn = rng.UniformInt(raw.CapacityBlocks() - 8);
      t_raw += raw.ServiceRequest(req, 0.0);
      t_bus += attached.ServiceRequest(req, 0.0);
    }
    table.Row({gen.name, Fmt("%.3f", t_raw / static_cast<double>(samples)),
               Fmt("%.3f", t_bus / static_cast<double>(samples))});
  }
  return 0;
}
