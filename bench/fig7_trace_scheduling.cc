// Figure 7: scheduling algorithms on the MEMS-based storage device under
// the (synthetic stand-ins for the) Cello and TPC-C traces, versus the
// trace time scale factor (§4.3: scale k divides every interarrival gap by
// k, multiplying the arrival rate).
//
// Expected shape (paper): Cello ranks like the random workload; on TPC-C,
// SPTF wins by a much larger margin because many pending requests sit at
// tiny inter-LBN distances (LBN-based schemes cannot tell cheap small seeks
// from expensive ones — every X move pays the settle).
//
// Multi-trial: trial seeds depend only on (base seed, trace, trial) — not on
// the scale — so as in the paper every scale point replays the same base
// trace(s), just faster.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(argc, argv, kCsv | kFast | kTrialFlags | kJson);
  const TableWriter table(opts.csv);
  BenchJson json("fig7_trace_scheduling", opts);

  const SchedKind scheds[] = {SchedKind::kFcfs, SchedKind::kSstfLbn, SchedKind::kClook,
                              SchedKind::kSptf};
  const int64_t count = opts.Scale(20000);

  std::printf("Figure 7(a): cello-like trace on MEMS — mean response time (ms)\n");
  table.Row({"scale", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
  TrialRunner::Options cello_opts = opts.TrialOptions();
  cello_opts.base_seed = DeriveTrialSeed(opts.seed, 31);
  for (const double scale : {1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0}) {
    std::vector<std::string> row = {Fmt("%.0f", scale)};
    for (SchedKind sched : scheds) {
      const AggregateResult agg = TrialRunner::RunExperiments(
          cello_opts, [sched, scale, count](uint64_t seed, int64_t) {
            return RunCelloSchedTrial(sched, scale, count, seed);
          });
      row.push_back(FmtCi("%.3f", agg.Get("mean_response_ms")));
      json.AddCell("cello_scale" + Fmt("%.0f", scale) + "/" + SchedKindName(sched), agg);
    }
    table.Row(row);
  }

  std::printf("\nFigure 7(b): tpcc-like trace on MEMS — mean response time (ms)\n");
  table.Row({"scale", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
  TrialRunner::Options tpcc_opts = opts.TrialOptions();
  tpcc_opts.base_seed = DeriveTrialSeed(opts.seed, 37);
  for (const double scale : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0}) {
    std::vector<std::string> row = {Fmt("%.0f", scale)};
    for (SchedKind sched : scheds) {
      const AggregateResult agg = TrialRunner::RunExperiments(
          tpcc_opts, [sched, scale, count](uint64_t seed, int64_t) {
            return RunTpccSchedTrial(sched, scale, count, seed);
          });
      row.push_back(FmtCi("%.3f", agg.Get("mean_response_ms")));
      json.AddCell("tpcc_scale" + Fmt("%.0f", scale) + "/" + SchedKindName(sched), agg);
    }
    table.Row(row);
  }
  return json.WriteIfRequested() ? 0 : 1;
}
