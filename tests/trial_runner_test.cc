#include "src/core/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/workload/random_workload.h"

namespace mstk {
namespace {

TEST(TrialSeedTest, DeterministicAndDistinct) {
  std::set<uint64_t> seeds;
  for (int64_t t = 0; t < 1000; ++t) {
    const uint64_t s = DeriveTrialSeed(42, t);
    EXPECT_EQ(s, DeriveTrialSeed(42, t));
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across trial indices
  EXPECT_NE(DeriveTrialSeed(42, 0), DeriveTrialSeed(43, 0));  // base matters
}

TEST(StudentTTest, MatchesTable) {
  EXPECT_NEAR(StudentT95(1), 12.706, 1e-9);
  EXPECT_NEAR(StudentT95(3), 3.182, 1e-9);   // n=4 trials
  EXPECT_NEAR(StudentT95(7), 2.365, 1e-9);   // n=8 trials
  EXPECT_NEAR(StudentT95(30), 2.042, 1e-9);
  EXPECT_NEAR(StudentT95(1000), 1.96, 1e-9);
}

TEST(AggregateMetricTest, ComputesMeanStddevCiMinMax) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
  const AggregateMetric m = AggregateMetric::FromSamples("x", samples);
  EXPECT_DOUBLE_EQ(m.mean, 2.5);
  // Sample stddev with n-1: sqrt((2.25+0.25+0.25+2.25)/3).
  EXPECT_NEAR(m.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 4.0);
  const double half = 3.182 * m.stddev / 2.0;  // t_{.975,3} * s / sqrt(4)
  EXPECT_NEAR(m.ci95_hi - m.mean, half, 1e-9);
  EXPECT_NEAR(m.mean - m.ci95_lo, half, 1e-9);
}

TEST(AggregateMetricTest, SingleSampleCollapsesCi) {
  const AggregateMetric m = AggregateMetric::FromSamples("x", {3.25});
  EXPECT_DOUBLE_EQ(m.mean, 3.25);
  EXPECT_DOUBLE_EQ(m.stddev, 0.0);
  EXPECT_DOUBLE_EQ(m.ci95_lo, 3.25);
  EXPECT_DOUBLE_EQ(m.ci95_hi, 3.25);
}

// A cheap deterministic trial body: a pure function of the seed.
TrialMetrics SyntheticTrial(uint64_t seed, int64_t /*index*/) {
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < 100; ++i) sum += rng.NextDouble();
  return {{"sum", sum}, {"first", Rng(seed).NextDouble()}};
}

std::string AggregateJson(const AggregateResult& agg) {
  JsonWriter json;
  agg.AppendJson(json);
  return json.TakeString();
}

TEST(TrialRunnerTest, JobsCountDoesNotChangeResults) {
  TrialRunner::Options serial;
  serial.trials = 16;
  serial.jobs = 1;
  serial.base_seed = 99;
  TrialRunner::Options fanned = serial;
  fanned.jobs = 8;

  const AggregateResult a = TrialRunner::Run(serial, SyntheticTrial);
  const AggregateResult b = TrialRunner::Run(fanned, SyntheticTrial);
  // Byte-identical JSON — the determinism guarantee the CI gate enforces.
  EXPECT_EQ(AggregateJson(a), AggregateJson(b));
}

TEST(TrialRunnerTest, AggregatesInTrialIndexOrder) {
  TrialRunner::Options opts;
  opts.trials = 8;
  opts.jobs = 4;
  opts.base_seed = 7;
  const AggregateResult agg = TrialRunner::Run(
      opts, [](uint64_t, int64_t index) -> TrialMetrics {
        return {{"index", static_cast<double>(index)}};
      });
  ASSERT_EQ(agg.per_trial.size(), 8u);
  for (int64_t t = 0; t < 8; ++t) {
    EXPECT_DOUBLE_EQ(agg.per_trial[static_cast<size_t>(t)][0].second,
                     static_cast<double>(t));
  }
  EXPECT_DOUBLE_EQ(agg.Get("index").mean, 3.5);
  EXPECT_DOUBLE_EQ(agg.Get("index").min, 0.0);
  EXPECT_DOUBLE_EQ(agg.Get("index").max, 7.0);
}

TEST(TrialRunnerTest, ExperimentTrialsAreJobCountInvariant) {
  // A real (tiny) open-loop simulation per trial: fresh device, scheduler,
  // and event queue each time, workload drawn from the trial seed.
  auto trial = [](uint64_t seed, int64_t) {
    MemsDevice device;
    SptfScheduler sched(&device);
    RandomWorkloadConfig config;
    config.arrival_rate_per_s = 900.0;
    config.request_count = 300;
    config.capacity_blocks = device.CapacityBlocks();
    Rng rng(seed);
    const auto requests = GenerateRandomWorkload(config, rng);
    return mstk::Run(&device, &sched, requests);
  };
  TrialRunner::Options serial;
  serial.trials = 6;
  serial.jobs = 1;
  serial.base_seed = 12345;
  TrialRunner::Options fanned = serial;
  fanned.jobs = 8;

  const AggregateResult a = TrialRunner::RunExperiments(serial, trial);
  const AggregateResult b = TrialRunner::RunExperiments(fanned, trial);
  EXPECT_EQ(AggregateJson(a), AggregateJson(b));
  EXPECT_GT(a.Get("mean_response_ms").mean, 0.0);
  EXPECT_EQ(a.Get("completed").mean, 300.0);
  // CI bounds bracket the mean once there is trial-to-trial variance.
  const AggregateMetric& resp = a.Get("mean_response_ms");
  EXPECT_LE(resp.ci95_lo, resp.mean);
  EXPECT_GE(resp.ci95_hi, resp.mean);
  EXPECT_LE(resp.min, resp.mean);
  EXPECT_GE(resp.max, resp.mean);
}

TEST(TrialRunnerTest, TrialExceptionPropagates) {
  TrialRunner::Options opts;
  opts.trials = 4;
  opts.jobs = 2;
  EXPECT_THROW(TrialRunner::Run(opts,
                                [](uint64_t, int64_t index) -> TrialMetrics {
                                  if (index == 2) throw std::runtime_error("boom");
                                  return {{"v", 1.0}};
                                }),
               std::runtime_error);
}

TEST(TrialRunnerTest, RethrowsTheLowestIndexAfterEveryTrial) {
  for (const int jobs : {1, 3, 8}) {
    std::atomic<int> ran{0};
    std::atomic<bool> trial5_threw{false};
    TrialRunner::Options opts;
    opts.trials = 8;
    opts.jobs = jobs;
    std::string message;
    try {
      TrialRunner::Run(opts, [&](uint64_t, int64_t index) -> TrialMetrics {
        ++ran;
        if (index == 2 && jobs >= 2) {
          // Trial 5 throws first in time, so a runner that rethrows the
          // first exception it catches fails. The wait is bounded so that a
          // runner which never starts trial 5 cannot hang the suite; the
          // pause after it lets trial 5's thread hand its exception over.
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!trial5_threw && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (index == 2) throw std::runtime_error("trial 2");
        if (index == 5) {
          trial5_threw = true;
          throw std::runtime_error("trial 5");
        }
        return {{"v", 1.0}};
      });
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "trial 2") << "jobs " << jobs;
    EXPECT_EQ(ran.load(), 8) << "jobs " << jobs;
  }
}

TEST(TrialRunnerTest, RunsEveryTrialOnceAtAnyJobCount) {
  for (const int jobs : {0, 1, 5, 64}) {
    std::atomic<int> runs[5] = {};
    TrialRunner::Options opts;
    opts.trials = 5;
    opts.jobs = jobs;
    opts.base_seed = 3;
    const AggregateResult agg =
        TrialRunner::Run(opts, [&runs](uint64_t seed, int64_t index) -> TrialMetrics {
          ++runs[index];
          return {{"index", static_cast<double>(index)}, {"seed", static_cast<double>(seed)}};
        });
    ASSERT_EQ(agg.per_trial.size(), 5u) << "jobs " << jobs;
    for (int64_t t = 0; t < 5; ++t) {
      const TrialMetrics& slot = agg.per_trial[static_cast<size_t>(t)];
      EXPECT_EQ(runs[t].load(), 1) << "jobs " << jobs << ", trial " << t;
      EXPECT_EQ(slot[0].second, static_cast<double>(t)) << "jobs " << jobs;
      EXPECT_EQ(slot[1].second, static_cast<double>(DeriveTrialSeed(3, t))) << "jobs " << jobs;
    }
  }
}

TEST(JsonWriterTest, StableKeyOrderAndEscaping) {
  JsonWriter json;
  json.BeginObject();
  json.KV("b_second", 2);
  json.KV("a_first", std::string_view("quote\" slash\\ tab\t"));
  json.Key("arr");
  json.BeginArray();
  json.Double(0.5);
  json.Double(std::nan(""));
  json.Int(-3);
  json.EndArray();
  json.EndObject();
  const std::string out = json.TakeString();
  // Keys stay in insertion order (no sorting), non-finite doubles are null.
  EXPECT_LT(out.find("b_second"), out.find("a_first"));
  EXPECT_NE(out.find("\\\" slash\\\\ tab\\t"), std::string::npos);
  EXPECT_NE(out.find("null"), std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace mstk
