#include "src/core/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/core/experiment.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/units.h"

namespace mstk {
namespace {

Request At(double arrival_ms) {
  Request req;
  req.arrival_ms = arrival_ms;
  return req;
}

TEST(MetricsTest, ResponseQueueServiceRelationship) {
  MetricsCollector m;
  // Request arrives at 10, dispatched at 15 (queue 5), completes at 18
  // (service 3, response 8).
  const Request req = At(10.0);
  m.RecordDispatch(req, 15.0, 3);
  m.RecordCompletion(req, 18.0, 3.0);
  EXPECT_DOUBLE_EQ(m.queue_time().mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.service_time().mean(), 3.0);
  EXPECT_DOUBLE_EQ(m.response_time().mean(), 8.0);
  EXPECT_DOUBLE_EQ(m.queue_depth().mean(), 3.0);
  EXPECT_EQ(m.completed(), 1);
  EXPECT_DOUBLE_EQ(m.last_completion_ms(), 18.0);
}

TEST(MetricsTest, ScvOfConstantResponsesIsZero) {
  MetricsCollector m;
  for (int i = 0; i < 10; ++i) {
    const Request req = At(i * 10.0);
    m.RecordDispatch(req, i * 10.0, 1);
    m.RecordCompletion(req, i * 10.0 + 4.0, 4.0);
  }
  EXPECT_DOUBLE_EQ(m.ResponseScv(), 0.0);
  EXPECT_DOUBLE_EQ(m.ResponseQuantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(m.ResponseQuantile(0.99), 4.0);
}

TEST(MetricsTest, QuantilesTrackSpread) {
  MetricsCollector m;
  for (int i = 1; i <= 100; ++i) {
    const Request req = At(0.0);
    m.RecordDispatch(req, 0.0, 1);
    m.RecordCompletion(req, static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_NEAR(m.ResponseQuantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(m.ResponseQuantile(0.95), 95.0, 1.5);
  EXPECT_GT(m.ResponseScv(), 0.0);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(SecondsToMs(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(MsToSeconds(250.0), 0.25);
  EXPECT_DOUBLE_EQ(UmToMeters(100.0), 1e-4);
  EXPECT_DOUBLE_EQ(NmToMeters(40.0), 4e-8);
  EXPECT_EQ(kBlockBytes, 512);
}

TEST(RequestTest, DerivedFields) {
  Request req;
  req.lbn = 100;
  req.block_count = 8;
  req.type = IoType::kWrite;
  EXPECT_EQ(req.last_lbn(), 107);
  EXPECT_EQ(req.bytes(), 4096);
  EXPECT_FALSE(req.is_read());
}

TEST(ServiceBreakdownTest, TotalSumsComponents) {
  const ServiceBreakdown bd{1.0, 2.0, 0.5, {}};
  EXPECT_DOUBLE_EQ(bd.total_ms(), 3.5);
}

TEST(ServiceBreakdownTest, EnsurePhasesDerivesFromCoarseFields) {
  ServiceBreakdown bd{1.0, 2.0, 0.5, {}};
  bd.EnsurePhases();
  EXPECT_DOUBLE_EQ(bd.phases[Phase::kSeekX], 1.0);
  EXPECT_DOUBLE_EQ(bd.phases[Phase::kTransfer], 2.0);
  EXPECT_DOUBLE_EQ(bd.phases[Phase::kTurnaround], 0.5);
  EXPECT_DOUBLE_EQ(bd.phases.service_ms(), bd.total_ms());
  // A breakdown whose device already filled the phases is left alone.
  ServiceBreakdown fine{1.0, 2.0, 0.5, {}};
  fine.phases[Phase::kSeekY] = 3.5;
  fine.EnsurePhases();
  EXPECT_DOUBLE_EQ(fine.phases[Phase::kSeekX], 0.0);
  EXPECT_DOUBLE_EQ(fine.phases[Phase::kSeekY], 3.5);
}

TEST(MetricsTest, PhaseSummariesTrackBreakdowns) {
  MetricsCollector m;
  PhaseBreakdown phases;
  phases[Phase::kQueue] = 5.0;
  phases[Phase::kSeekX] = 1.0;
  phases[Phase::kTransfer] = 2.0;
  const Request req = At(10.0);
  m.RecordCompletion(req, 18.0, 3.0, phases);
  phases[Phase::kSeekX] = 3.0;
  m.RecordCompletion(req, 26.0, 5.0, phases);
  EXPECT_EQ(m.phase(Phase::kSeekX).count(), 2);
  EXPECT_DOUBLE_EQ(m.phase(Phase::kSeekX).mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.phase(Phase::kTransfer).mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.phase(Phase::kQueue).mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.phase(Phase::kSettle).mean(), 0.0);
  // The 3-argument overload records no phase samples.
  m.RecordCompletion(req, 30.0, 1.0);
  EXPECT_EQ(m.phase(Phase::kSeekX).count(), 2);
  EXPECT_EQ(m.completed(), 3);
}

// The collector's contract, folded by hand: every summary sees its values
// in record order, excluded background requests feed only the rebuild
// counters, and the three-argument completion records no phases.
struct ReferenceFold {
  bool exclude_background = false;
  SummaryStats response, service, queue, depth, phase[kPhaseCount];
  SampleSet samples;
  int64_t rebuild_ios = 0;
  TimeMs rebuild_ms = 0.0;
  TimeMs last_completion_ms = 0.0;

  void Dispatch(const Request& req, TimeMs now_ms, int64_t queue_depth) {
    if (exclude_background && req.background) return;
    queue.Add(now_ms - req.arrival_ms);
    depth.Add(static_cast<double>(queue_depth));
  }
  void Complete(const Request& req, TimeMs now_ms, TimeMs service_ms,
                const PhaseBreakdown* phases) {
    if (req.background) {
      ++rebuild_ios;
      rebuild_ms += service_ms;
      if (exclude_background) return;
    }
    response.Add(now_ms - req.arrival_ms);
    samples.Add(now_ms - req.arrival_ms);
    service.Add(service_ms);
    last_completion_ms = now_ms;
    for (int i = 0; phases != nullptr && i < kPhaseCount; ++i) {
      phase[i].Add(phases->phase_ms[i]);
    }
  }
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameSummary(const SummaryStats& got, const SummaryStats& want, const char* what,
                       int record) {
  EXPECT_EQ(got.count(), want.count()) << what << " after record " << record;
  EXPECT_EQ(Bits(got.mean()), Bits(want.mean())) << what << " after record " << record;
  EXPECT_EQ(Bits(got.variance()), Bits(want.variance())) << what << " after record " << record;
  EXPECT_EQ(Bits(got.min()), Bits(want.min())) << what << " after record " << record;
  EXPECT_EQ(Bits(got.max()), Bits(want.max())) << what << " after record " << record;
}

void ExpectSameFold(MetricsCollector& m, ReferenceFold& ref, int record) {
  ExpectSameSummary(m.response_time(), ref.response, "response", record);
  ExpectSameSummary(m.service_time(), ref.service, "service", record);
  ExpectSameSummary(m.queue_time(), ref.queue, "queue", record);
  ExpectSameSummary(m.queue_depth(), ref.depth, "queue depth", record);
  for (int i = 0; i < kPhaseCount; ++i) {
    ExpectSameSummary(m.phase(static_cast<Phase>(i)), ref.phase[i],
                      PhaseName(static_cast<Phase>(i)), record);
  }
  EXPECT_EQ(Bits(m.ResponseScv()), Bits(ref.response.SquaredCoefficientOfVariation()));
  if (ref.samples.count() > 0) {
    for (const double q : {0.5, 0.99, 0.999}) {
      EXPECT_EQ(Bits(m.ResponseQuantile(q)), Bits(ref.samples.Quantile(q)))
          << "quantile " << q << " after record " << record;
    }
  }
  EXPECT_EQ(m.completed(), ref.response.count()) << "after record " << record;
  EXPECT_EQ(Bits(m.last_completion_ms()), Bits(ref.last_completion_ms)) << record;
  EXPECT_EQ(m.fault().rebuild_ios, ref.rebuild_ios) << "after record " << record;
  EXPECT_EQ(Bits(m.fault().rebuild_ms), Bits(ref.rebuild_ms)) << "after record " << record;
}

TEST(MetricsTest, MatchesAReferenceFold) {
  for (const bool exclude : {false, true}) {
    SCOPED_TRACE(exclude ? "background excluded" : "background counted");
    MetricsCollector m;
    m.set_exclude_background(exclude);
    ReferenceFold ref;
    ref.exclude_background = exclude;
    Rng rng(2026);
    TimeMs now_ms = 0.0;
    constexpr int kRecords = 1000;
    for (int record = 1; record <= kRecords; ++record) {
      now_ms += rng.Exponential(1.0);
      Request req;
      req.arrival_ms = now_ms - rng.Uniform(0.0, 20.0);
      req.background = rng.Bernoulli(0.25);
      const TimeMs service_ms = rng.Uniform(0.1, 5.0);
      switch (rng.UniformInt(3)) {
        case 0: {
          const int64_t queue_depth = rng.UniformInt(32);
          m.RecordDispatch(req, now_ms, queue_depth);
          ref.Dispatch(req, now_ms, queue_depth);
          break;
        }
        case 1:
          m.RecordCompletion(req, now_ms, service_ms);
          ref.Complete(req, now_ms, service_ms, nullptr);
          break;
        default: {
          PhaseBreakdown phases;
          for (TimeMs& ms : phases.phase_ms) ms = rng.Uniform(0.0, 2.0);
          m.RecordCompletion(req, now_ms, service_ms, phases);
          ref.Complete(req, now_ms, service_ms, &phases);
          break;
        }
      }
      if (record % 97 == 0 || record == kRecords) ExpectSameFold(m, ref, record);
    }
  }
}

}  // namespace
}  // namespace mstk
