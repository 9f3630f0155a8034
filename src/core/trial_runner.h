// Parallel multi-trial experiment engine.
//
// Every figure in the paper is a mean over many simulated request streams.
// TrialRunner fans N independent trials out across a fixed-size ThreadPool:
// each trial owns its own device, scheduler, and event queue (the trial
// callback constructs them), and draws randomness only from a per-trial RNG
// seed derived with a splitmix64 mix of (base_seed, trial_index). Results
// are collected into a slot per trial index and aggregated in index order,
// so the output is bit-identical regardless of worker count or OS thread
// schedule — `--jobs 1` and `--jobs 8` produce byte-identical JSON.
#ifndef MSTK_SRC_CORE_TRIAL_RUNNER_H_
#define MSTK_SRC_CORE_TRIAL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/sim/json_writer.h"

namespace mstk {

// Independent per-trial seed: a splitmix64 finalizer over base_seed with the
// trial index folded in by the golden-ratio increment. Trials of one
// experiment never share an RNG stream, and the mapping is a pure function
// of (base_seed, trial_index) — never of thread id or schedule.
uint64_t DeriveTrialSeed(uint64_t base_seed, int64_t trial_index);

// Two-sided 95% critical value of Student's t distribution with `df`
// degrees of freedom (exact table for df <= 30, asymptotic 1.96 above).
double StudentT95(int64_t df);

// A trial reports its results as named scalars. Order is significant: it
// defines the metric order in the aggregate and the JSON document, so every
// trial of one experiment must report the same names in the same order.
using TrialMetrics = std::vector<std::pair<std::string, double>>;

// Scalar view of an ExperimentResult, for trials built on Run.
TrialMetrics MetricsFromExperiment(const ExperimentResult& result);

// Summary of one metric across trials. With a single trial the CI collapses
// to [mean, mean] and stddev is 0.
struct AggregateMetric {
  std::string name;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev (n-1 denominator), the CI's basis
  double min = 0.0;
  double max = 0.0;
  double ci95_lo = 0.0;  // mean -/+ t_{.975,n-1} * stddev / sqrt(n)
  double ci95_hi = 0.0;

  static AggregateMetric FromSamples(std::string name, const std::vector<double>& samples);
};

struct AggregateResult {
  uint64_t base_seed = 0;
  int64_t trials = 0;
  std::vector<AggregateMetric> metrics;          // trial-callback order
  std::vector<TrialMetrics> per_trial;           // indexed by trial

  // Looks a metric up by name; dies (CHECK) if absent.
  const AggregateMetric& Get(std::string_view name) const;

  // Serializes as {"base_seed":..,"trials":..,"metrics":{..},"per_trial":[..]}
  // with stable key order. Deliberately excludes wall-clock time and job
  // count so documents from different --jobs values compare byte-equal.
  void AppendJson(JsonWriter& json) const;
};

class TrialRunner {
 public:
  struct Options {
    int64_t trials = 1;
    int jobs = 1;          // worker threads; 0 = one per hardware core
    uint64_t base_seed = 1;
  };

  // Runs `fn(trial_seed, trial_index)` for every index in [0, trials) on a
  // pool of `jobs` workers and aggregates in index order. `fn` must be
  // thread-safe with respect to other trials (own its device/scheduler/
  // queue) and deterministic in its arguments. A throwing trial propagates
  // out of Run() after all workers finish.
  static AggregateResult Run(const Options& options,
                             const std::function<TrialMetrics(uint64_t, int64_t)>& fn);

  // Convenience wrapper for trials producing a full ExperimentResult.
  static AggregateResult RunExperiments(
      const Options& options,
      const std::function<ExperimentResult(uint64_t, int64_t)>& fn);
};

}  // namespace mstk

#endif  // MSTK_SRC_CORE_TRIAL_RUNNER_H_
