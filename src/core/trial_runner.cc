#include "src/core/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "src/sim/check.h"

namespace mstk {

uint64_t DeriveTrialSeed(uint64_t base_seed, int64_t trial_index) {
  // splitmix64 finalizer over the index-advanced state. Matches the mixer
  // Rng itself seeds through, so per-trial streams are as independent as
  // splitmix64 streams are.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(trial_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double StudentT95(int64_t df) {
  // Two-sided 95% (i.e. 0.975 quantile). Abramowitz & Stegun table 26.10.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df < 1) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

TrialMetrics MetricsFromExperiment(const ExperimentResult& result) {
  TrialMetrics metrics = {
      {"mean_response_ms", result.MeanResponseMs()},
      {"mean_service_ms", result.MeanServiceMs()},
      {"response_scv", result.ResponseScv()},
      {"mean_queue_depth", result.metrics.queue_depth().mean()},
      {"makespan_ms", result.makespan_ms},
      {"completed", static_cast<double>(result.metrics.completed())},
  };
  // Per-phase means of the service decomposition (queue first, then the
  // mechanical phases; their means sum to ~mean_service_ms).
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    metrics.emplace_back(std::string("mean_") + PhaseName(p) + "_ms",
                         result.metrics.phase(p).mean());
  }
  // Fault-recovery outcomes (all zero unless the trial attached a fault
  // model; see Driver::EnableRecovery).
  const FaultCounters& fc = result.metrics.fault();
  metrics.emplace_back("fault_transient_errors", static_cast<double>(fc.transient_errors));
  metrics.emplace_back("fault_timeouts", static_cast<double>(fc.timeouts));
  metrics.emplace_back("fault_retries", static_cast<double>(fc.retries));
  metrics.emplace_back("fault_permanent", static_cast<double>(fc.permanent_faults));
  metrics.emplace_back("fault_remaps", static_cast<double>(fc.remaps));
  metrics.emplace_back("fault_failed_requests", static_cast<double>(fc.failed_requests));
  metrics.emplace_back("fault_rebuild_ios", static_cast<double>(fc.rebuild_ios));
  metrics.emplace_back("fault_rebuild_ms", fc.rebuild_ms);
  metrics.emplace_back("fault_degraded_ms", fc.degraded_ms);
  return metrics;
}

AggregateMetric AggregateMetric::FromSamples(std::string name,
                                             const std::vector<double>& samples) {
  AggregateMetric m;
  m.name = std::move(name);
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) return m;
  double sum = 0.0;
  m.min = samples[0];
  m.max = samples[0];
  for (double x : samples) {
    sum += x;
    m.min = std::min(m.min, x);
    m.max = std::max(m.max, x);
  }
  m.mean = sum / static_cast<double>(n);
  if (n > 1) {
    double ss = 0.0;
    for (double x : samples) {
      const double d = x - m.mean;
      ss += d * d;
    }
    m.stddev = std::sqrt(ss / static_cast<double>(n - 1));
  }
  const double half =
      n > 1 ? StudentT95(n - 1) * m.stddev / std::sqrt(static_cast<double>(n)) : 0.0;
  m.ci95_lo = m.mean - half;
  m.ci95_hi = m.mean + half;
  return m;
}

const AggregateMetric& AggregateResult::Get(std::string_view name) const {
  for (const AggregateMetric& m : metrics) {
    if (m.name == name) return m;
  }
  MSTK_CHECK(false, "AggregateResult::Get: unknown metric name");
  return metrics.front();  // unreachable
}

void AggregateResult::AppendJson(JsonWriter& json) const {
  json.BeginObject();
  json.KV("base_seed", base_seed);
  json.KV("trials", trials);
  json.Key("metrics");
  json.BeginObject();
  for (const AggregateMetric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.KV("mean", m.mean);
    json.KV("stddev", m.stddev);
    json.KV("ci95_lo", m.ci95_lo);
    json.KV("ci95_hi", m.ci95_hi);
    json.KV("min", m.min);
    json.KV("max", m.max);
    json.EndObject();
  }
  json.EndObject();
  json.Key("per_trial");
  json.BeginArray();
  for (int64_t t = 0; t < static_cast<int64_t>(per_trial.size()); ++t) {
    json.BeginObject();
    json.KV("trial", t);
    json.KV("seed", DeriveTrialSeed(base_seed, t));
    for (const auto& [name, value] : per_trial[static_cast<size_t>(t)]) {
      json.KV(name, value);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

AggregateResult TrialRunner::Run(const Options& options,
                                 const std::function<TrialMetrics(uint64_t, int64_t)>& fn) {
  MSTK_CHECK(options.trials >= 1, "TrialRunner: need at least one trial");
  const int jobs = options.jobs > 0
                       ? options.jobs
                       : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  AggregateResult agg;
  agg.base_seed = options.base_seed;
  agg.trials = options.trials;
  agg.per_trial.resize(static_cast<size_t>(options.trials));

  // One result slot and one exception slot per trial index: threads take
  // indices from a shared counter and finish in any order, but each trial
  // writes only its own slots and everything below reads in index order,
  // which is what makes the output schedule-independent. A throwing trial
  // stops no other: every trial runs, then the lowest index's exception
  // leaves Run().
  std::vector<std::exception_ptr> errors(static_cast<size_t>(options.trials));
  {
    std::atomic<int64_t> next_trial{0};
    const auto run_trials = [&] {
      for (int64_t t = next_trial++; t < options.trials; t = next_trial++) {
        try {
          agg.per_trial[static_cast<size_t>(t)] = fn(DeriveTrialSeed(options.base_seed, t), t);
        } catch (...) {
          errors[static_cast<size_t>(t)] = std::current_exception();
        }
      }
    };
    // Each jthread joins as it leaves this scope, also when starting a
    // later one throws.
    std::vector<std::jthread> threads;
    for (int64_t j = std::min<int64_t>(jobs, options.trials); j > 0; --j) {
      threads.emplace_back(run_trials);
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  const TrialMetrics& first = agg.per_trial.front();
  for (size_t m = 0; m < first.size(); ++m) {
    std::vector<double> samples;
    samples.reserve(agg.per_trial.size());
    for (const TrialMetrics& trial : agg.per_trial) {
      MSTK_CHECK(m < trial.size() && trial[m].first == first[m].first,
                 "TrialRunner: trials reported inconsistent metric names");
      samples.push_back(trial[m].second);
    }
    agg.metrics.push_back(AggregateMetric::FromSamples(first[m].first, samples));
  }
  return agg;
}

AggregateResult TrialRunner::RunExperiments(
    const Options& options, const std::function<ExperimentResult(uint64_t, int64_t)>& fn) {
  return Run(options, [&fn](uint64_t seed, int64_t index) {
    return MetricsFromExperiment(fn(seed, index));
  });
}

}  // namespace mstk
