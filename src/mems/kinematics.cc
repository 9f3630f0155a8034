#include "src/mems/kinematics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace mstk {
namespace {

constexpr double kPi = 3.141592653589793;
constexpr double kTwoPi = 6.283185307179586;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative tolerance for on-arc (energy) checks and angle wrapping.
constexpr double kTol = 1e-9;

}  // namespace

SledKinematics::SledKinematics(const SledAxisParams& params) : params_(params) {
  assert(params_.a_max > 0.0 && params_.p_max > 0.0);
  if (params_.spring_coeff >= 0.0) {
    c_ = params_.spring_coeff;
  } else {
    assert(params_.spring_factor >= 0.0 && params_.spring_factor < 1.0);
    c_ = params_.spring_factor * params_.a_max / params_.p_max;
  }
  omega_ = std::sqrt(c_);
}

double SledKinematics::LinearArcSeconds(int u, double p0, double v0, double p1,
                                        double v1) const {
  const double a = u * params_.a_max;
  // Energy consistency: v1^2 must equal v0^2 + 2 a (p1 - p0).
  const double expect = v0 * v0 + 2.0 * a * (p1 - p0);
  const double scale = std::max({v0 * v0, v1 * v1, std::abs(a * params_.p_max)});
  if (std::abs(v1 * v1 - expect) > 1e-6 * (scale + 1e-12)) {
    return kInf;
  }
  const double t = (v1 - v0) / a;
  if (t < -kTol) {
    return kInf;
  }
  return std::max(t, 0.0);
}

double SledKinematics::ArcSeconds(int u, double p0, double v0, double p1,
                                  double v1) const {
  if (c_ == 0.0) {
    return LinearArcSeconds(u, p0, v0, p1, v1);
  }
  const double e = u * params_.a_max / c_;  // equilibrium offset for control u
  const double r0 = std::hypot(p0 - e, v0 / omega_);
  const double r1 = std::hypot(p1 - e, v1 / omega_);
  if (std::abs(r0 - r1) > 1e-6 * (r0 + r1 + 1e-12)) {
    return kInf;  // states not on the same arc
  }
  if (r0 < 1e-15) {
    return 0.0;  // parked at equilibrium (cannot happen for spring_factor < 1)
  }
  const double theta0 = std::atan2(-v0 / omega_, p0 - e);
  const double theta1 = std::atan2(-v1 / omega_, p1 - e);
  double dtheta = theta1 - theta0;
  if (dtheta < -kTol) {
    dtheta += kTwoPi;
  }
  return std::max(dtheta, 0.0) / omega_;
}

SledPlan SledKinematics::Plan(double p0, double v0, double p1, double v1) const {
  SledPlan best;
  best.t_total = kInf;

  if (p0 == p1 && v0 == v1) {
    return SledPlan{0.0, 0.0, +1, p0, v0, true};
  }

  const double a = params_.a_max;
  // Spring potential per unit mass: U(p) = c p^2 / 2.
  const auto potential = [this](double p) { return 0.5 * c_ * p * p; };

  for (const int sigma : {+1, -1}) {
    // Switch position from energy balance between phase 1 (control sigma)
    // and phase 2 (control -sigma).
    const double xs = 0.5 * (p0 + p1) +
                      (v1 * v1 - v0 * v0 + 2.0 * (potential(p1) - potential(p0))) /
                          (4.0 * sigma * a);
    // Velocity magnitude at the switch point (energy along phase 1).
    const double vs2 = v0 * v0 + 2.0 * sigma * a * (xs - p0) -
                       (2.0 * potential(xs) - 2.0 * potential(p0));
    if (vs2 < -1e-12) {
      continue;
    }
    const double vs_mag = std::sqrt(std::max(vs2, 0.0));
    for (const int vsign : {+1, -1}) {
      if (vsign < 0 && vs_mag == 0.0) {
        continue;  // +/-0 are the same state
      }
      const double vs = vsign * vs_mag;
      const double t1 = ArcSeconds(sigma, p0, v0, xs, vs);
      if (!std::isfinite(t1)) {
        continue;
      }
      const double t2 = ArcSeconds(-sigma, xs, vs, p1, v1);
      if (!std::isfinite(t2)) {
        continue;
      }
      const double total = t1 + t2;
      if (total < best.t_total) {
        best.t_total = total;
        best.t_switch = t1;
        best.sigma = sigma;
        best.switch_pos = xs;
        best.switch_vel = vs;
        best.feasible = true;
      }
    }
  }
  assert(best.feasible && "no feasible single-switch sled plan");
  return best;
}

double SledKinematics::TravelSeconds(double p0, double v0, double p1, double v1) const {
  return Plan(p0, v0, p1, v1).t_total;
}

double SledKinematics::SeekSeconds(double from, double to) const {
  // While the spring is weaker than the actuator everywhere, both controls'
  // equilibria lie outside the range. From rest to rest, Plan's fastest
  // candidate then pushes toward the target, sigma = sign(to - from), and
  // switches while still moving toward it: the other switch sign sweeps a
  // longer arc, and the other sigma has no real switch speed. This
  // evaluates that candidate alone, in Plan's and ArcSeconds' expressions
  // and order, so it returns Plan's t_total bit for bit.
  if (from == to || !(c_ > 0.0 && c_ * params_.p_max < params_.a_max)) {
    return TravelSeconds(from, 0.0, to, 0.0);
  }
  constexpr double v0 = 0.0;
  constexpr double v1 = 0.0;
  const int sigma = to > from ? +1 : -1;
  const double a = params_.a_max;
  const auto potential = [this](double p) { return 0.5 * c_ * p * p; };
  const double xs = 0.5 * (from + to) +
                    (v1 * v1 - v0 * v0 + 2.0 * (potential(to) - potential(from))) /
                        (4.0 * sigma * a);
  const double vs2 = v0 * v0 + 2.0 * sigma * a * (xs - from) -
                     (2.0 * potential(xs) - 2.0 * potential(from));
  if (!(vs2 > 0.0)) {
    return TravelSeconds(from, 0.0, to, 0.0);  // no switch speed, or a zero one
  }
  const double vs = sigma * std::sqrt(vs2);
  // ArcSeconds' test and sweep, given each end's radius and angle.
  const auto arc = [this](double r0, double theta0, double r1, double theta1) {
    if (std::abs(r0 - r1) > 1e-6 * (r0 + r1 + 1e-12)) {
      return kInf;
    }
    if (r0 < 1e-15) {
      return 0.0;
    }
    double dtheta = theta1 - theta0;
    if (dtheta < -kTol) {
      dtheta += kTwoPi;
    }
    return std::max(dtheta, 0.0) / omega_;
  };
  // At a rest end ArcSeconds calls hypot(x, 0.0 / omega_), which is |x|,
  // and atan2(-0.0 / omega_, x), which is -0.0, or -pi when x has its sign
  // bit set (C Annex F). (-vs) / omega_ is -(vs / omega_), and the phase-2
  // equilibrium -sigma * a / c_ is -e1, exactly.
  const auto rest_angle = [](double x) { return std::signbit(x) ? -kPi : -0.0; };
  const double w = vs / omega_;
  const double e1 = sigma * a / c_;
  const double e2 = -e1;
  const double t1 = arc(std::abs(from - e1), rest_angle(from - e1), std::hypot(xs - e1, w),
                        std::atan2(-w, xs - e1));
  const double t2 = arc(std::hypot(xs - e2, w), std::atan2(-w, xs - e2), std::abs(to - e2),
                        rest_angle(to - e2));
  if (!std::isfinite(t1) || !std::isfinite(t2)) {
    return TravelSeconds(from, 0.0, to, 0.0);
  }
  return t1 + t2;
}

double SledKinematics::TurnaroundSeconds(double p, double v) const {
  if (v == 0.0) {
    return 0.0;
  }
  return TravelSeconds(p, v, p, -v);
}

void SledKinematics::IntegratePlan(const SledPlan& plan, double p0, double v0,
                                   double dt, double* p_out, double* v_out) const {
  assert(dt > 0.0);
  double p = p0;
  double v = v0;
  double t = 0.0;
  const double a_max = params_.a_max;
  const double c = c_;
  auto accel = [a_max, c](double u, double pos) { return u * a_max - c * pos; };
  while (t < plan.t_total) {
    const double u = (t < plan.t_switch) ? plan.sigma : -plan.sigma;
    // Do not integrate across the switch or past the end.
    double step = dt;
    if (t < plan.t_switch && t + step > plan.t_switch) {
      step = plan.t_switch - t;
    }
    if (t + step > plan.t_total) {
      step = plan.t_total - t;
    }
    if (step <= 0.0) {
      break;
    }
    // RK4 for the linear system (p' = v, v' = u*a - c*p).
    const double k1p = v;
    const double k1v = accel(u, p);
    const double k2p = v + 0.5 * step * k1v;
    const double k2v = accel(u, p + 0.5 * step * k1p);
    const double k3p = v + 0.5 * step * k2v;
    const double k3v = accel(u, p + 0.5 * step * k2p);
    const double k4p = v + step * k3v;
    const double k4v = accel(u, p + step * k3p);
    p += step / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p);
    v += step / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
    t += step;
  }
  *p_out = p;
  *v_out = v;
}

}  // namespace mstk
