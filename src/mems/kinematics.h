// Time-optimal sled motion planning for one axis of the spring-mounted
// media sled.
//
// Physics (per §2.3 and [GSGN00]): the actuator applies a constant
// acceleration of magnitude `a_max` in either direction; the spring
// suspension adds a restoring acceleration linear in offset, reaching
// `spring_factor * a_max` at full displacement:
//
//     p''(t) = u * a_max - c * p(t),   c = spring_factor * a_max / p_max,
//     u in {-1, +1}
//
// Under a fixed control u this is a driven harmonic oscillator about the
// shifted equilibrium e_u = u * p_max / spring_factor (outside the mobility
// range when spring_factor < 1, so the sled always makes progress). The
// planner builds time-optimal single-switch bang-bang trajectories from the
// closed-form harmonic arcs; a numeric RK4 integrator cross-checks them in
// tests.
#ifndef MSTK_SRC_MEMS_KINEMATICS_H_
#define MSTK_SRC_MEMS_KINEMATICS_H_

namespace mstk {

struct SledAxisParams {
  double a_max = 803.6;         // actuator acceleration, m/s^2
  double p_max = 50e-6;         // half-range of sled mobility, m
  double spring_factor = 0.75;  // spring accel at p_max, as a fraction of a_max
  // When >= 0, use this spring coefficient c (s^-2) directly instead of
  // deriving it from spring_factor. The [GSGN00] "resonant" parameterization
  // sets c = (2*pi*f_resonant)^2, which exceeds the actuator force near the
  // edges and produces the paper's long turnaround tail (up to 1.11 ms).
  double spring_coeff = -1.0;
};

// A planned two-phase trajectory: control `sigma` until `t_switch`, then
// `-sigma` until `t_total` (both seconds). Single-phase plans have
// t_switch == t_total.
struct SledPlan {
  double t_total = 0.0;
  double t_switch = 0.0;
  int sigma = +1;
  double switch_pos = 0.0;  // m
  double switch_vel = 0.0;  // m/s (signed)
  bool feasible = false;
};

class SledKinematics {
 public:
  explicit SledKinematics(const SledAxisParams& params);

  // Minimal single-switch travel time (seconds) from state (p0, v0) to
  // (p1, v1). Positions in meters within [-p_max, p_max]; velocities in m/s.
  double TravelSeconds(double p0, double v0, double p1, double v1) const;

  // Full plan for the fastest trajectory (for tests/telemetry).
  SledPlan Plan(double p0, double v0, double p1, double v1) const;

  // Rest-to-rest seek (the X-dimension case): Plan(from, 0, to, 0).t_total,
  // bit for bit. While the spring is weaker than the actuator (c * p_max <
  // a_max), only Plan's winning candidate is evaluated: two hypot and two
  // atan2 calls instead of up to four candidates of four each. Plan itself
  // runs for a zero-length seek, a springless sled, a spring that can
  // overpower the actuator (SpringModel::kResonant), and a candidate that
  // turns out infeasible.
  double SeekSeconds(double from, double to) const;

  // Velocity reversal in place: (p, v) -> (p, -v). The paper's "turnaround".
  double TurnaroundSeconds(double p, double v) const;

  // Numeric reference: integrates the given plan with RK4 and returns the
  // final (position, velocity). Used by tests to validate the closed form.
  void IntegratePlan(const SledPlan& plan, double p0, double v0, double dt,
                     double* p_out, double* v_out) const;

  const SledAxisParams& params() const { return params_; }

  // Spring "stiffness" acceleration coefficient c (1/s^2); 0 when springless.
  double c() const { return c_; }

 private:
  // Time (seconds) along a single harmonic arc under control u from (p0, v0)
  // to (p1, v1); both states must lie on the same arc (same energy).
  double ArcSeconds(int u, double p0, double v0, double p1, double v1) const;

  // Same for the springless (constant-acceleration) case.
  double LinearArcSeconds(int u, double p0, double v0, double p1, double v1) const;

  SledAxisParams params_;
  double c_;      // spring coefficient, s^-2
  double omega_;  // sqrt(c), rad/s (0 when springless)
};

}  // namespace mstk

#endif  // MSTK_SRC_MEMS_KINEMATICS_H_
