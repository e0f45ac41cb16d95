// Describing functions of the marking nonlinearities (paper Eq. 20-28,
// extended to the RED ramp and the PIE probability clamp for the
// stability atlas).
//
// DCTCP relay (X >= K):
//   N_dc(X)  = 2/(pi X) * sqrt(1 - (K/X)^2)                       (Eq. 22)
//   N0_dc(X) = K * N_dc(X)  with characteristic gain K0 = 1/K     (Eq. 23)
//
// DT-DCTCP hysteresis (X >= K2 >= K1):
//   N_dt(X)  = 1/(pi X) [sqrt(1-(K1/X)^2) + sqrt(1-(K2/X)^2)]
//              + j (K2-K1)/(pi X^2)                               (Eq. 27)
//   N0_dt(X) = K2 * N_dt(X) with K0 = 1/K2                        (Eq. 28)
//
// The positive imaginary part of N_dt is the phase *lead* introduced by
// starting the marking early and stopping it early; it pushes -1/N0dt
// away from the plant locus, which is the paper's stability argument.
//
// RED ramp: the effective marking probability is a one-sided piecewise-
// linear map of the (filtered) queue — see
// fluid::red_effective_probability. Its first-harmonic DF
// for an input X sin(wt), thresholds measured from the sine's center
// like the relay's, is real and closed-form: each clamped ramp segment
// [c, d) of slope m contributes m [S(c) - S(d)] / X and each step of
// height h at t contributes h u(t) / (pi X), where
//   u(t) = 2 sqrt(1 - (t/X)^2),
//   S(t) = (1/pi) [X v(t) - t u(t)],
//   v(t) = (pi - 2 asin(t/X))/2 + sin(asin(t/X)) cos(asin(t/X)),
// all zero for t >= X. The relay is the single step h = 1 at K, which
// recovers Eq. 22 — the tests pin this. K0 is the ramp slope at the
// operating point, max_p/(max_th - min_th) doubled for Floyd spacing.
//
// PIE clamp: the PI controller is linear in the queue; the only
// nonlinearity is the clamp of p to [0, 1]. Around an operating
// probability p0 it is a saturation with limit L = min(p0, 1 - p0) and
// unit slope, whose DF is the textbook
//   N_sat(A) = 1                                       for A <= L,
//   N_sat(A) = (2/pi) [asin(L/A) + (L/A) sqrt(1-(L/A)^2)]  for A > L,
// with K0 = 1 (the controller's gain is in the linear loop filter).
// Since p0 depends on the plant operating point, the pieces are
// assembled by analysis::MarkingModel — the one place a marking rule
// becomes a DF, with its relative DF N0 = N/K0 and locus -1/N0.
//
// `numeric_df` computes the same quantity by direct Fourier quadrature
// of the stateful nonlinearity driven by a sinusoid; the tests use it to
// validate the closed forms (and it covers regimes the closed forms
// exclude).
#pragma once

#include <complex>
#include <functional>

#include "queue/marking_rule.h"

namespace dtdctcp::analysis {

using Complex = std::complex<double>;

/// Closed-form DF of DCTCP's relay; X must be >= K.
Complex df_dctcp(double amplitude, double k);

/// Closed-form DF of DT-DCTCP's hysteresis; X must be >= K2.
Complex df_dtdctcp(double amplitude, double k1, double k2);

/// Closed-form DF of the RED ramp (the *effective* probability of
/// queue::RedQueue, Floyd-doubled and clamped at 1 — see
/// fluid::red_effective_probability). Real-valued; defined for every
/// X > 0 but identically zero until X exceeds min_th.
Complex df_red(double amplitude, const queue::RedConfig& red);

/// Closed-form DF of a unit-slope symmetric saturation with limit L:
/// 1 for A <= L, shrinking as (2/pi)(asin(L/A) + (L/A)sqrt(1-(L/A)^2))
/// beyond. Real-valued, in (0, 1].
Complex df_saturation(double amplitude, double limit);

/// Largest real part attained by a -1/N0(X) locus (e.g.
/// MarkingModel::neg_recip) over X in [X_min, X_max] (paper:
/// max(-1/N0dc) = -pi at X = K*sqrt(2)). Returns the argmax through
/// `arg_x` when non-null. Degenerate inputs (x_min <= 0 or
/// x_max <= x_min) are clamped rather than propagating NaN.
double max_real_of_locus(const std::function<Complex(double)>& neg_recip,
                         double x_min, double x_max,
                         double* arg_x = nullptr);

/// DF of the nonlinearity computed numerically: drive
/// y(t) = rule(bias + X sin(wt)) for a warmup cycle, then integrate the
/// fundamental Fourier coefficients of y over one cycle (the DC term is
/// orthogonal to the fundamental and drops out). The paper's closed
/// forms measure thresholds from the sine's center, i.e. bias = 0;
/// non-zero bias explores the regimes the closed forms exclude.
/// Supports every rule fluid::MarkingAutomaton models (not PIE).
Complex numeric_df(const queue::MarkingRule& spec, double amplitude,
                   double bias, int samples_per_cycle = 20000);

}  // namespace dtdctcp::analysis
