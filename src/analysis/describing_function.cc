#include "analysis/describing_function.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "fluid/marking.h"

namespace dtdctcp::analysis {

Complex df_dctcp(double amplitude, double k) {
  assert(amplitude >= k && "DF of the relay is defined for X >= K");
  const double ratio = k / amplitude;
  const double b1 = 2.0 / M_PI * std::sqrt(1.0 - ratio * ratio);
  return Complex(b1 / amplitude, 0.0);
}

Complex df_dtdctcp(double amplitude, double k1, double k2) {
  assert(k1 <= k2);
  assert(amplitude >= k2 && "DF of the hysteresis is defined for X >= K2");
  const double r1 = k1 / amplitude;
  const double r2 = k2 / amplitude;
  const double b1 =
      (std::sqrt(1.0 - r1 * r1) + std::sqrt(1.0 - r2 * r2)) / M_PI;
  const double a1 = (k2 - k1) / (M_PI * amplitude);
  return Complex(b1 / amplitude, a1 / amplitude);
}

namespace {

/// Fundamental-harmonic building blocks for one-sided piecewise-linear
/// nonlinearities of X sin(wt) (thresholds measured from the sine's
/// center, like the relay's). All vanish for t >= X.
double step_u(double t, double x) {
  if (t >= x) return 0.0;
  const double r = t / x;
  return 2.0 * std::sqrt(1.0 - r * r);
}

double ramp_s(double t, double x) {
  // S(t) = (1/pi) [X v(t) - t u(t)]: the b1 contribution of a unit-slope
  // ramp max(0, q - t).
  if (t >= x) return 0.0;
  const double theta = std::asin(t / x);
  const double v = 0.5 * (M_PI - 2.0 * theta) +
                   std::sin(theta) * std::cos(theta);
  return (x * v - t * step_u(t, x)) / M_PI;
}

}  // namespace

Complex df_red(double amplitude, const queue::RedConfig& red) {
  assert(amplitude > 0.0);
  const double a = red.min_th;
  const double b = red.max_th;
  const double x = amplitude;
  // Piecewise-linear decomposition of the effective probability
  // min(2 * ramp(q), 1) — see fluid::red_effective_probability.
  const double m1 = 2.0 * red.max_p / (b - a);
  double b1 = 0.0;
  const double q1 = a + 1.0 / m1;  // where the doubled first ramp hits 1
  if (q1 <= b) {
    b1 += m1 * (ramp_s(a, x) - ramp_s(q1, x));
  } else if (red.gentle) {
    b1 += m1 * (ramp_s(a, x) - ramp_s(b, x));
    const double m2 = 2.0 * (1.0 - red.max_p) / b;
    // The doubled gentle ramp always saturates before 2*max_th.
    const double q2 = b + (1.0 - 2.0 * red.max_p) / m2;
    b1 += m2 * (ramp_s(b, x) - ramp_s(q2, x));
  } else {
    b1 += m1 * (ramp_s(a, x) - ramp_s(b, x));
    b1 += (1.0 - 2.0 * red.max_p) * step_u(b, x) / M_PI;
  }
  return Complex(b1 / x, 0.0);
}

Complex df_saturation(double amplitude, double limit) {
  assert(amplitude > 0.0 && limit > 0.0);
  if (amplitude <= limit) return Complex(1.0, 0.0);
  const double rho = limit / amplitude;
  const double n =
      2.0 / M_PI * (std::asin(rho) + rho * std::sqrt(1.0 - rho * rho));
  return Complex(n, 0.0);
}

double max_real_of_locus(const std::function<Complex(double)>& neg_recip,
                         double x_min, double x_max, double* arg_x) {
  // NaN-free on degenerate ranges: a non-positive or empty [x_min,
  // x_max] collapses to a tiny positive point instead of feeding 0 or a
  // negative base into the log-spaced scan.
  if (!(x_min > 0.0)) x_min = 1e-12;
  if (!(x_max > x_min)) x_max = x_min;
  // -1/N0 is smooth in X; golden-section on Re is enough (the relay's
  // maximum is the known -pi at X = K*sqrt(2), used by the tests).
  constexpr int kScan = 2000;
  double best = -1e300;
  double best_x = x_min;
  for (int i = 0; i <= kScan; ++i) {
    const double x =
        x_min * std::pow(x_max / x_min, static_cast<double>(i) / kScan);
    const double re = neg_recip(x).real();
    if (re > best) {
      best = re;
      best_x = x;
    }
  }
  // Local refinement around the best grid point.
  double lo = best_x / 1.05;
  double hi = best_x * 1.05;
  if (lo < x_min) lo = x_min;
  if (hi > x_max) hi = x_max;
  for (int it = 0; it < 200; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (neg_recip(m1).real() < neg_recip(m2).real()) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  best_x = 0.5 * (lo + hi);
  best = neg_recip(best_x).real();
  if (arg_x != nullptr) *arg_x = best_x;
  return best;
}

Complex numeric_df(const queue::MarkingRule& spec, double amplitude,
                   double bias, int samples_per_cycle) {
  // Continuous-limit trend margin: the sine is noiseless, so the
  // automaton only needs an infinitesimal hysteresis in its peak/trough
  // detection (the packet queue uses a coarser margin to reject
  // enqueue/dequeue jitter; that margin would shift the K2 release on
  // swings that barely clear K2 and is not part of the closed forms).
  fluid::MarkingAutomaton automaton(spec, 1e-9 * amplitude + 1e-12);
  automaton.reset(bias - amplitude);  // start at the trough, not marking
  const double dphi = 2.0 * M_PI / samples_per_cycle;

  // One warmup cycle settles the hysteresis state, then integrate.
  for (int i = 0; i < samples_per_cycle; ++i) {
    automaton.update(bias + amplitude * std::sin(dphi * i));
  }
  double a1 = 0.0;
  double b1 = 0.0;
  for (int i = 0; i < samples_per_cycle; ++i) {
    const double phi = dphi * i;
    const double y = automaton.update(bias + amplitude * std::sin(phi));
    a1 += y * std::cos(phi) * dphi;
    b1 += y * std::sin(phi) * dphi;
  }
  a1 /= M_PI;
  b1 /= M_PI;
  return Complex(b1 / amplitude, a1 / amplitude);
}

}  // namespace dtdctcp::analysis
