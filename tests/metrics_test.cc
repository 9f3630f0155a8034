#include "src/core/metrics.h"

#include <gtest/gtest.h>

#include "src/core/experiment.h"
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

}  // namespace
}  // namespace mstk
