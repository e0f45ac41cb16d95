#include "analysis/marking_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dtdctcp::analysis {

MarkingModel MarkingModel::make(const queue::MarkingRule& spec,
                                const PlantParams& plant) {
  assert(supports(spec) && spec.unit == queue::ThresholdUnit::kPackets);
  MarkingModel m;
  m.spec = spec;
  m.plant = plant;
  switch (spec.kind) {
    case queue::MarkingKind::kThreshold:
    case queue::MarkingKind::kHysteresis:
      // K0 = 1/K for the relay (Eq. 19), 1/K2 for the hysteresis (Eq. 24).
      m.k0 = 1.0 / spec.k_stop;
      m.x_min = spec.k_stop;
      break;
    case queue::MarkingKind::kRed:
      // The (Floyd-doubled) ramp slope, the loop gain RED contributes
      // around its operating point.
      m.k0 = 2.0 * spec.red.max_p / (spec.red.max_th - spec.red.min_th);
      m.x_min = spec.red.min_th;
      // EWMA updated once per arrival, ~C arrivals/s: a first-order lag
      // with pole at w_q * C.
      m.tau = 1.0 / std::max(1e-9, spec.red.weight * plant.capacity_pps);
      break;
    case queue::MarkingKind::kPie: {
      // PIE's gain lives entirely in its linear PI filter (K0 = 1).
      m.pie = true;
      m.k0 = 1.0;
      // Steady-state marking probability of the congestion controller
      // at window W0 = R0 C / N: DCTCP-style senders see a reduction
      // every marked RTT (p0 = 2/W0); classic ECN Reno halves once per
      // window (p0 = 2/W0^2). Clamped away from 0/1 so the clamp
      // engagement limit L stays positive.
      const double w0 =
          std::max(1.0, plant.rtt * plant.capacity_pps / plant.flows);
      double p0 = plant.cc == CcVariant::kEcnReno ? 2.0 / (w0 * w0)
                                                  : 2.0 / w0;
      p0 = std::clamp(p0, 1e-4, 1.0 - 1e-4);
      m.pie_p0 = p0;
      m.sat_limit = std::min(p0, 1.0 - p0);
      m.x_min = m.sat_limit;
      break;
    }
    default:
      break;
  }
  return m;
}

Complex MarkingModel::df(double x) const {
  switch (spec.kind) {
    case queue::MarkingKind::kThreshold:
      return df_dctcp(x, spec.k_start);
    case queue::MarkingKind::kHysteresis:
      return df_dtdctcp(x, spec.k_start, spec.k_stop);
    case queue::MarkingKind::kRed:
      return df_red(x, spec.red);
    case queue::MarkingKind::kPie:
      return df_saturation(x, sat_limit);
    default:
      break;
  }
  return Complex(0.0, 0.0);
}

Complex MarkingModel::filter(double w) const {
  if (pie) {
    // The controller applies dp = alpha*e + beta*(e - e_prev) once per
    // update interval T, with e the delay error q/C. In continuous
    // time dp/dt = (alpha/T) e + (beta/T) de/dt, i.e.
    // H(s) = (beta + alpha/s) / T, times 1/C for the queue -> delay
    // conversion.
    return Complex(spec.pie.beta, -spec.pie.alpha / w) /
           (spec.pie.update_interval * plant.capacity_pps);
  }
  if (tau > 0.0) return 1.0 / Complex(1.0, w * tau);
  return Complex(1.0, 0.0);
}

double MarkingModel::filter_phase(double w) const {
  if (pie) return -std::atan2(spec.pie.alpha / w, spec.pie.beta);
  if (tau > 0.0) return -std::atan2(w * tau, 1.0);
  return 0.0;
}

Complex MarkingModel::loop_response(double w) const {
  Complex r = k0 * plant_response(plant, w);
  if (has_filter()) r *= filter(w);
  return r;
}

double MarkingModel::queue_amplitude(double x, double w) const {
  if (!has_filter()) return x;
  return x / std::abs(filter(w));
}

double MarkingModel::operating_queue() const {
  if (pie) return spec.pie.target_delay * plant.capacity_pps;
  return spec.midpoint();
}

double MarkingModel::x_search_max(double factor, double w_lo,
                                  double w_hi) const {
  const double base = x_min * factor;
  if (!has_filter()) return base;
  double h_max = 0.0;
  constexpr int kSamples = 64;
  for (int i = 0; i <= kSamples; ++i) {
    const double w =
        w_lo * std::pow(w_hi / w_lo, static_cast<double>(i) / kSamples);
    h_max = std::max(h_max, std::abs(filter(w)));
  }
  const double queue_span = 4.0 * plant.capacity_pps * plant.rtt;
  return std::max(base, h_max * queue_span);
}

double MarkingModel::max_real_neg_recip(double x_max, double* arg_x) const {
  const double lo = x_min * (1.0 + 1e-9);
  return max_real_of_locus([this](double x) { return neg_recip(x); }, lo,
                           x_max, arg_x);
}

}  // namespace dtdctcp::analysis
