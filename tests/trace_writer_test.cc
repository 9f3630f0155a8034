#include "src/sim/trace_writer.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

TEST(TraceWriterTest, CapturesSlicesAndCounters) {
  TraceWriter writer;
  const int tid = writer.AddTrack("device 0");
  EXPECT_EQ(tid, 1);
  EXPECT_EQ(writer.AddTrack("device 1"), 2);
  writer.Slice(tid, "seek", 10.0, 0.5, "good", {{"cylinders", 42.0}});
  writer.Counter(tid, "queue_depth", 10.5, 3.0);
  ASSERT_EQ(writer.events().size(), 2u);
  const TraceWriter::Event& slice = writer.events()[0];
  EXPECT_EQ(slice.ph, 'X');
  EXPECT_EQ(slice.name, "seek");
  EXPECT_EQ(slice.tid, tid);
  EXPECT_DOUBLE_EQ(slice.start_ms, 10.0);
  EXPECT_DOUBLE_EQ(slice.dur_ms, 0.5);
  EXPECT_EQ(slice.color, "good");
  ASSERT_EQ(slice.args.size(), 1u);
  EXPECT_EQ(slice.args[0].first, "cylinders");
  const TraceWriter::Event& counter = writer.events()[1];
  EXPECT_EQ(counter.ph, 'C');
  EXPECT_DOUBLE_EQ(counter.value, 3.0);
}

TEST(TraceWriterTest, JsonHasMetadataAndMicrosecondTimestamps) {
  TraceWriter writer;
  const int tid = writer.AddTrack("lane");
  writer.Slice(tid, "op", 2.0, 1.5, "good");
  const std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Thread-name metadata names the track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("lane"), std::string::npos);
  // 2.0 ms -> 2000 us, 1.5 ms -> 1500 us.
  EXPECT_NE(json.find("\"ts\": 2000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"cname\": \"good\""), std::string::npos);
  // Stable: serializing twice gives identical bytes.
  EXPECT_EQ(json, writer.ToJson());
}

TEST(TraceTrackTest, DisabledHandleIsInert) {
  TraceTrack track;
  EXPECT_FALSE(track.enabled());
  // Must be safe (and free) to call with no writer attached.
  track.Slice("op", 0.0, 1.0);
  track.Counter("depth", 0.0, 1.0);
}

TEST(TraceTrackTest, EnabledHandleRoutesToItsTrack) {
  TraceWriter writer;
  const int tid = writer.AddTrack("t");
  TraceTrack track(&writer, tid);
  EXPECT_TRUE(track.enabled());
  track.Slice("op", 1.0, 2.0);
  ASSERT_EQ(writer.events().size(), 1u);
  EXPECT_EQ(writer.events()[0].tid, tid);
}

TEST(TraceIntegrationTest, PhaseSlicesTileEachRequestSlice) {
  MemsDevice device;
  FcfsScheduler sched;
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = 700.0;
  config.request_count = 300;
  config.capacity_blocks = device.CapacityBlocks();
  Rng rng(21);
  const std::vector<Request> requests = GenerateRandomWorkload(config, rng);

  TraceWriter writer;
  const int tid = writer.AddTrack("cell");
  const ExperimentResult traced =
      mstk::Run(&device, &sched, requests, {}, TraceTrack(&writer, tid));
  const ExperimentResult plain = mstk::Run(&device, &sched, requests);
  // Tracing must not perturb the simulation.
  EXPECT_EQ(traced.metrics.completed(), plain.metrics.completed());
  EXPECT_DOUBLE_EQ(traced.MeanResponseMs(), plain.MeanResponseMs());
  EXPECT_DOUBLE_EQ(traced.makespan_ms, plain.makespan_ms);

  // Group slices: per request id "r<id>" is the parent; phase-named slices
  // that start within it are its children.
  struct Parent {
    double start_ms;
    double dur_ms;
    double child_sum = 0.0;
  };
  std::map<std::string, Parent> parents;
  int64_t counters = 0;
  for (const TraceWriter::Event& e : writer.events()) {
    if (e.ph == 'C') {
      ++counters;
    } else if (e.ph == 'X' && e.name[0] == 'r') {
      parents[e.name] = Parent{e.start_ms, e.dur_ms};
    }
  }
  ASSERT_EQ(parents.size(), static_cast<size_t>(requests.size()));
  EXPECT_GT(counters, 0);
  for (const TraceWriter::Event& e : writer.events()) {
    if (e.ph != 'X' || e.name[0] == 'r') {
      continue;
    }
    // Phase slice: attribute to the parent whose span contains it.
    bool attributed = false;
    for (auto& [name, parent] : parents) {
      if (e.start_ms >= parent.start_ms - 1e-9 &&
          e.start_ms + e.dur_ms <= parent.start_ms + parent.dur_ms + 1e-9) {
        parent.child_sum += e.dur_ms;
        attributed = true;
        break;
      }
    }
    EXPECT_TRUE(attributed) << e.name << " at " << e.start_ms;
  }
  for (const auto& [name, parent] : parents) {
    EXPECT_NEAR(parent.child_sum, parent.dur_ms, 1e-9) << name;
  }
}

}  // namespace
}  // namespace mstk
