// Scenario-zoo trace replay through the Driver path: every scenario under
// every scheduler at the chosen arrival control, on a fresh MEMS device.
//
// By default each cell generates its scenario per trial (seed-derived) and
// replays it open-loop; --arrival-mode closed|hybrid switches the feedback
// regime and --clients N fan-in-multiplies the trace before replay. With
// --trace-file the external v1 trace replaces the scenario axis: the file is
// parsed once (strictly) and replayed under every scheduler.
//
// Columns: mean/p99 response, sigma^2/mu^2, mean queue depth, makespan.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace mstk;

constexpr SchedKind kScheds[] = {SchedKind::kFcfs, SchedKind::kSstfLbn, SchedKind::kClook,
                                 SchedKind::kSptf};

void AddRow(const TableWriter& table, BenchJson& json, const std::string& label,
            const AggregateResult& agg) {
  table.Row({label, FmtCi("%.3f", agg.Get("mean_response_ms")),
             FmtCi("%.3f", agg.Get("mean_service_ms")), FmtCi("%.3f", agg.Get("response_scv")),
             FmtCi("%.2f", agg.Get("mean_queue_depth")), FmtCi("%.1f", agg.Get("makespan_ms"))},
            /*width=*/14, /*first_width=*/28);
  json.AddCell(label, agg);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::Parse(
      argc, argv, kCsv | kFast | kTrialFlags | kJson | kTraceFile | kArrivalMode | kClients);
  ArrivalMode mode = ArrivalMode::kOpen;
  if (!ParseArrivalMode(opts.arrival_mode.c_str(), &mode)) {
    std::fprintf(stderr, "unknown --arrival-mode %s (open|closed|hybrid)\n",
                 opts.arrival_mode.c_str());
    return 2;
  }

  const TableWriter table(opts.csv);
  BenchJson json("trace_replay", opts);
  table.Row({"cell", "mean_ms", "service_ms", "scv", "qdepth", "makespan_ms"},
            /*width=*/14, /*first_width=*/28);

  if (!opts.trace_file.empty()) {
    trace::ParsedTrace parsed;
    std::string error;
    if (!trace::ReadTraceFile(opts.trace_file, &parsed, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    MemsDevice probe;
    parsed.records =
        trace::RemapToCapacity(parsed.records, probe.CapacityBlocks(), trace::RemapMode::kScale);
    if (opts.clients > 1) {
      if (!trace::MultipliedClientsFit(parsed.records, opts.clients)) {
        std::fprintf(stderr, "error: %s: client ids overflow int32 when multiplied %d-way\n",
                     opts.trace_file.c_str(), opts.clients);
        return 1;
      }
      parsed.records =
          trace::MultiplyClients(parsed.records, opts.clients, probe.CapacityBlocks());
    }
    const std::vector<Request> requests = trace::ToRequests(parsed);
    for (const SchedKind sched : kScheds) {
      const AggregateResult agg = TrialRunner::RunExperiments(
          opts.TrialOptions(), [&requests, sched, mode](uint64_t, int64_t) {
            MemsDevice device;
            RunConfig replay;
            replay.mode = mode;
            return RunWithScheduler(&device, sched, requests, replay);
          });
      AddRow(table, json, std::string("file/") + SchedKindName(sched), agg);
    }
    return json.WriteIfRequested() ? 0 : 1;
  }

  for (const std::string& scenario : trace::ScenarioNames()) {
    for (const SchedKind sched : kScheds) {
      ScenarioReplaySpec spec;
      spec.scenario = scenario;
      spec.sched = sched;
      spec.mode = mode;
      spec.clients = opts.clients;
      spec.count = opts.Scale(4000);
      const AggregateResult agg = TrialRunner::RunExperiments(
          opts.TrialOptions(),
          [&spec](uint64_t seed, int64_t) { return RunScenarioReplayTrial(spec, seed); });
      AddRow(table, json, scenario + "/" + SchedKindName(sched) + "/" + ArrivalModeName(spec.mode),
             agg);
    }
  }
  return json.WriteIfRequested() ? 0 : 1;
}
