// Randomized property sweep for the bounded-force sled planner (the
// resonant variant has its own sweep in resonant_spring_test.cc), plus
// cross-checks between the two device axes' usage patterns and the
// exhaustive checks of the MEMS positioning order and of the one-candidate
// rest-to-rest seek.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/mems/kinematics.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

constexpr double kVAccess = 0.028;

TEST(KinematicsPropertyTest, RandomizedPlansIntegrateExactly) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(41);
  for (int i = 0; i < 3000; ++i) {
    const double p0 = rng.Uniform(-48.6e-6, 48.6e-6);
    const double p1 = rng.Uniform(-48.6e-6, 48.6e-6);
    const double v0 =
        rng.Bernoulli(0.5) ? 0.0 : (rng.Bernoulli(0.5) ? kVAccess : -kVAccess);
    const double v1 = rng.Bernoulli(0.5) ? kVAccess : -kVAccess;
    const SledPlan plan = kin.Plan(p0, v0, p1, v1);
    ASSERT_TRUE(plan.feasible);
    ASSERT_GE(plan.t_total, 0.0);
    ASSERT_LE(plan.t_total, 2e-3);  // < spring period / swing bound
    double p_end = 0.0;
    double v_end = 0.0;
    kin.IntegratePlan(plan, p0, v0, 2e-8, &p_end, &v_end);
    ASSERT_NEAR(p_end, p1, 5e-8) << i;
    ASSERT_NEAR(v_end, v1, 5e-4) << i;
  }
}

TEST(KinematicsPropertyTest, TriangleInequalityViaWaypoint) {
  // Going A -> B directly is never slower than stopping at a rest waypoint.
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(43);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Uniform(-45e-6, 45e-6);
    const double b = rng.Uniform(-45e-6, 45e-6);
    const double w = rng.Uniform(-45e-6, 45e-6);
    const double direct = kin.SeekSeconds(a, b);
    const double via = kin.SeekSeconds(a, w) + kin.SeekSeconds(w, b);
    ASSERT_LE(direct, via + 1e-12) << a << " " << b << " via " << w;
  }
}

TEST(KinematicsPropertyTest, MovingStartNeverWorseThanStopFirst) {
  // Arriving with velocity toward the target is at least as fast as first
  // braking to rest and then seeking (the planner exploits momentum).
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(47);
  for (int i = 0; i < 500; ++i) {
    const double p0 = rng.Uniform(-40e-6, 40e-6);
    const double p1 = rng.Uniform(-40e-6, 40e-6);
    const double v0 = (p1 > p0 ? +1.0 : -1.0) * kVAccess;  // toward target
    const double moving = kin.TravelSeconds(p0, v0, p1, 0.0);
    const double stop_first =
        kin.TravelSeconds(p0, v0, p0, 0.0) + kin.SeekSeconds(p0, p1);
    ASSERT_LE(moving, stop_first + 1e-12);
  }
}

TEST(KinematicsPropertyTest, SeekTimeScalesWithSqrtDistanceNearCenter) {
  // With the spring nearly irrelevant near the center, t ~ 2*sqrt(d/a).
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  for (const double d : {2e-6, 8e-6, 18e-6}) {
    const double t = kin.SeekSeconds(-d / 2, d / 2);
    EXPECT_NEAR(t, 2.0 * std::sqrt(d / 803.6), t * 0.06) << d;
  }
}

TEST(KinematicsPropertyTest, DeviceEstimateConsistentAcrossCopies) {
  // EstimatePositioningMs is const: two identical devices agree, and the
  // estimate never changes state.
  MemsDevice a;
  MemsDevice b;
  Rng rng(51);
  Request prime;
  prime.lbn = 123456;
  prime.block_count = 8;
  (void)a.ServiceRequest(prime, 0.0);
  (void)b.ServiceRequest(prime, 0.0);
  for (int i = 0; i < 500; ++i) {
    Request req;
    req.lbn = rng.UniformInt(a.CapacityBlocks() - 8);
    req.block_count = 8;
    const double ea1 = a.EstimatePositioningMs(req, 0.0);
    const double ea2 = a.EstimatePositioningMs(req, 0.0);
    ASSERT_DOUBLE_EQ(ea1, ea2);
    ASSERT_DOUBLE_EQ(ea1, b.EstimatePositioningMs(req, 0.0));
  }
}

// SledKinematics::SeekSeconds evaluates only the candidate that wins a
// rest-to-rest seek; it must return Plan's t_total bit for bit.
bool SeekMatchesPlan(const SledKinematics& kin, double from, double to) {
  return std::bit_cast<uint64_t>(kin.SeekSeconds(from, to)) ==
         std::bit_cast<uint64_t>(kin.Plan(from, 0.0, to, 0.0).t_total);
}

// SPTF's outward walk (src/sched/sptf.h) is exact only if the MEMS key leg,
// the X seek plus settle, never shrinks as the target cylinder moves away
// from the sled's cylinder on either side. Checks every step outward from
// every `stride`-th cylinder: cylinders * (cylinders - 1) steps at stride 1.
// Every ordered pair it visits also checks SeekMatchesPlan.
void ExpectKeyLegNeverShrinksOutward(const MemsParams& params, int32_t stride = 1) {
  MemsDevice device(params);
  const MemsGeometry& geometry = device.geometry();
  const int32_t cylinders = params.cylinders();
  std::vector<double> leg(static_cast<size_t>(cylinders));
  int64_t steps = 0;
  int64_t shrinking = 0;
  int64_t inexact_seeks = 0;
  for (int32_t from = 0; from < cylinders; from += stride) {
    Request req;
    req.lbn = geometry.Encode(MemsAddress{from, 0, 0, 0});
    req.block_count = 1;
    (void)device.ServiceRequest(req, 0.0);
    ASSERT_EQ(device.StateKey(), from);
    const double x_from = geometry.CylinderX(from);
    for (int32_t to = 0; to < cylinders; ++to) {
      leg[static_cast<size_t>(to)] = device.KeyLegMs(to);
      inexact_seeks +=
          SeekMatchesPlan(device.kinematics(), x_from, geometry.CylinderX(to)) ? 0 : 1;
    }
    ASSERT_EQ(leg[static_cast<size_t>(from)], 0.0);
    for (size_t to = static_cast<size_t>(from) + 1; to < leg.size(); ++to, ++steps) {
      shrinking += leg[to] < leg[to - 1] ? 1 : 0;
    }
    for (size_t to = static_cast<size_t>(from); to-- > 0; ++steps) {
      shrinking += leg[to] < leg[to + 1] ? 1 : 0;
    }
  }
  EXPECT_EQ(steps, int64_t{(cylinders + stride - 1) / stride} * (cylinders - 1));
  EXPECT_EQ(shrinking, 0);
  EXPECT_EQ(inexact_seeks, 0);
}

TEST(MemsKeyLegPropertyTest, NeverShrinksOutwardG1) {
  ExpectKeyLegNeverShrinksOutward(MemsParams::FirstGeneration());
}

TEST(MemsKeyLegPropertyTest, NeverShrinksOutwardG2) {
  ExpectKeyLegNeverShrinksOutward(MemsParams::SecondGeneration());
}

TEST(MemsKeyLegPropertyTest, NeverShrinksOutwardG3) {
  ExpectKeyLegNeverShrinksOutward(MemsParams::ThirdGeneration());
}

TEST(MemsKeyLegPropertyTest, NeverShrinksOutwardAcrossSpringFactors) {
  // Every bounded-force device offers the order, not just the presets:
  // sample the spring factors the ablations sweep, and no settle at all.
  for (const double spring : {0.0, 0.25, 0.5, 0.9}) {
    SCOPED_TRACE(spring);
    MemsParams params;
    params.spring_factor = spring;
    ExpectKeyLegNeverShrinksOutward(params, 25);
  }
  MemsParams no_settle;
  no_settle.settle_constants = 0.0;
  ExpectKeyLegNeverShrinksOutward(no_settle, 25);
}

TEST(MemsKeyLegPropertyTest, ResonantSeeksMatchPlan) {
  // The resonant spring overpowers the actuator near the edges, outside
  // the argument that makes one candidate exact, so SeekSeconds leaves
  // these seeks to Plan; they must keep Plan's bits.
  MemsParams params;
  params.spring_model = SpringModel::kResonant;
  const MemsDevice device(params);
  const MemsGeometry& geometry = device.geometry();
  int64_t inexact_seeks = 0;
  for (int32_t from = 0; from < params.cylinders(); from += 25) {
    for (int32_t to = 0; to < params.cylinders(); ++to) {
      inexact_seeks += SeekMatchesPlan(device.kinematics(), geometry.CylinderX(from),
                                       geometry.CylinderX(to))
                           ? 0
                           : 1;
    }
  }
  EXPECT_EQ(inexact_seeks, 0);
}

TEST(KinematicsPropertyTest, ServiceTimeTranslationInvariantInY) {
  // The bounded spring is symmetric: mirrored requests from the (centered)
  // initial sled state take identical times. Fresh state per probe —
  // accumulated state diverges at direction ties, which legitimately break
  // the mirror pairing.
  MemsDevice up;
  MemsDevice down;
  const MemsGeometry& geom = up.geometry();
  const int32_t rows = geom.params().rows_per_track();
  Rng rng(53);
  for (int i = 0; i < 300; ++i) {
    up.Reset();
    down.Reset();
    const int32_t cyl = static_cast<int32_t>(rng.UniformInt(2500));
    const int32_t row = static_cast<int32_t>(rng.UniformInt(rows));
    const int32_t mirror_cyl = 2499 - cyl;
    const int32_t mirror_row = rows - 1 - row;
    Request r1;
    r1.lbn = geom.Encode(MemsAddress{cyl, 0, row, 0});
    r1.block_count = 8;
    Request r2;
    r2.lbn = geom.Encode(MemsAddress{mirror_cyl, 0, mirror_row, 0});
    r2.block_count = 8;
    ASSERT_NEAR(up.ServiceRequest(r1, 0.0), down.ServiceRequest(r2, 0.0), 1e-9) << i;
  }
}

}  // namespace
}  // namespace mstk
