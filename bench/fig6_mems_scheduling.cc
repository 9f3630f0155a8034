// Figure 6: scheduling algorithms on the MEMS-based storage device, random
// workload — (a) mean response time and (b) sigma^2/mu^2 vs arrival rate.
//
// Expected shape (paper): same ranking as disks (SPTF best, C-LOOK fairest),
// but the FCFS-vs-LBN-based gap is relatively larger (seek time dominates
// service time; no rotational delay) and the C-LOOK-vs-SSTF_LBN gap smaller
// (both leave Y seeks unaddressed).
//
// Multi-trial: with --trials N every (rate, scheduler) cell is N independent
// request streams fanned across --jobs workers; trial seeds depend only on
// (base seed, rate, trial), so all four schedulers see identical streams.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace mstk;
  const BenchOptions opts = BenchOptions::Parse(
      argc, argv, kCsv | kFast | kTrialFlags | kJson | kTrace);
  const TableWriter table(opts.csv);
  BenchJson json("fig6_mems_scheduling", opts);

  const SchedKind scheds[] = {SchedKind::kFcfs, SchedKind::kSstfLbn, SchedKind::kClook,
                              SchedKind::kSptf};
  const std::vector<double> rates = {200, 400, 600, 800, 1000, 1200,
                                     1400, 1600, 1800, 2000};
  const int64_t count = opts.Scale(10000);

  std::printf("Figure 6(a): MEMS device, random workload — mean response time (ms)\n");
  table.Row({"rate_per_s", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
  std::vector<std::vector<AggregateResult>> cells(rates.size());
  for (size_t r = 0; r < rates.size(); ++r) {
    // One seed stream per rate (not per scheduler): every scheduler in this
    // row services the same N request streams, as in the paper.
    TrialRunner::Options trial_opts = opts.TrialOptions();
    trial_opts.base_seed = DeriveTrialSeed(opts.seed, 2000 + static_cast<int64_t>(r));
    std::vector<std::string> row = {Fmt("%.0f", rates[r])};
    for (SchedKind sched : scheds) {
      const double rate = rates[r];
      const AggregateResult agg = TrialRunner::RunExperiments(
          trial_opts, [sched, rate, count](uint64_t seed, int64_t) {
            return RunRandomSchedTrial(sched, rate, count, seed);
          });
      row.push_back(FmtCi("%.3f", agg.Get("mean_response_ms")));
      json.AddCell("rate" + Fmt("%.0f", rates[r]) + "/" + SchedKindName(sched), agg);
      cells[r].push_back(agg);
    }
    table.Row(row);
  }

  std::printf("\nFigure 6(b): MEMS device, random workload — sigma^2/mu^2 of response time\n");
  table.Row({"rate_per_s", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"});
  for (size_t r = 0; r < rates.size(); ++r) {
    std::vector<std::string> row = {Fmt("%.0f", rates[r])};
    for (const AggregateResult& agg : cells[r]) {
      row.push_back(FmtCi("%.2f", agg.Get("response_scv")));
    }
    table.Row(row);
  }

  // The paper could not explain an SPTF anomaly between 1500-2000 req/s
  // (Fig 6 caption). Probe that region: queue depth and service time vary
  // smoothly here, supporting the view that the anomaly was an artifact of
  // their simulator rather than of the device physics.
  std::printf("\nSPTF detail over the paper's anomalous region (smooth here):\n");
  table.Row({"rate_per_s", "mean_resp_ms", "mean_queue", "mean_service_ms"});
  for (double rate = 1400.0; rate <= 2000.0 + 1.0; rate += 100.0) {
    TrialRunner::Options trial_opts = opts.TrialOptions();
    trial_opts.base_seed = DeriveTrialSeed(opts.seed, 9000 + static_cast<int64_t>(rate));
    const AggregateResult agg = TrialRunner::RunExperiments(
        trial_opts, [rate, count](uint64_t seed, int64_t) {
          return RunRandomSchedTrial(SchedKind::kSptf, rate, count, seed);
        });
    table.Row({Fmt("%.0f", rate), FmtCi("%.3f", agg.Get("mean_response_ms")),
               FmtCi("%.1f", agg.Get("mean_queue_depth")),
               FmtCi("%.3f", agg.Get("mean_service_ms"))});
    json.AddCell("sptf_detail_rate" + Fmt("%.0f", rate), agg);
  }

  // --trace: re-run trial 0 of each (rate, scheduler) cell serially with a
  // recording track attached — the measured results above are untouched.
  if (!opts.trace_path.empty()) {
    TraceWriter trace;
    for (size_t r = 0; r < rates.size(); ++r) {
      const uint64_t row_seed =
          DeriveTrialSeed(DeriveTrialSeed(opts.seed, 2000 + static_cast<int64_t>(r)), 0);
      for (SchedKind sched : scheds) {
        const int tid = trace.AddTrack("rate" + Fmt("%.0f", rates[r]) + "/" +
                                       SchedKindName(sched));
        RunRandomSchedTrial(sched, rates[r], count, row_seed, TraceTrack(&trace, tid));
      }
    }
    if (!trace.WriteFile(opts.trace_path)) return 1;
  }
  return json.WriteIfRequested() ? 0 : 1;
}
