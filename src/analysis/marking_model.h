// Quasi-linear loop model of a marking rule against a plant.
//
// Every marking rule the atlas analyzes splits into
//
//   queue --H(jw)--> nonlinearity input --N(x), K0--> probability --G--> queue
//
// a LINEAR loop filter H and a static nonlinearity with describing
// function N(x), where x is the amplitude at the nonlinearity INPUT:
//
//   * relay / hysteresis — H = 1, N as in the paper (Eq. 22/27);
//   * RED — H is the EWMA low-pass 1/(1 + jw tau) with tau = 1/(w_q C)
//     (the average is updated per arrival, ~C of them per second), N is
//     the ramp DF (df_red);
//   * PIE — H is the PI controller (beta + alpha/(jw T))/C mapping
//     queue (packets) -> probability via the delay estimate q/C, and N
//     is the [0,1] clamp: a saturation with limit L = min(p0, 1 - p0)
//     around the operating probability p0 (df_saturation). p0 follows
//     from the congestion controller's steady state: 2/W0 for
//     DCTCP-style per-RTT reduction, 2/W0^2 for classic ECN Reno, with
//     W0 = R0 C / N.
//
// The characteristic equation solved by nyquist.cc becomes
//   K0 * G(jw) * H(jw) = -1 / N0(x),   N0 = N / K0,
// and a root's queue amplitude is x / |H(jw)| (H = 1 keeps the paper's
// rules bit-identical to the pre-atlas solver).
#pragma once

#include "analysis/describing_function.h"
#include "analysis/transfer_function.h"
#include "queue/marking_rule.h"

namespace dtdctcp::analysis {

struct MarkingModel {
  /// Whether the rule has a loop model: every kind that marks on the
  /// queue (threshold, hysteresis, RED, PIE); drop-tail and CoDel do not.
  static bool supports(const queue::MarkingRule& rule) {
    return rule.kind != queue::MarkingKind::kDropTail &&
           rule.kind != queue::MarkingKind::kCodel;
  }

  /// Assembles the loop model of a supported rule in packets (see
  /// MarkingRule::in_packets) — the one place a marking rule becomes a
  /// DF. `plant` supplies the operating point (PIE's p0 and both AQMs'
  /// filter constants scale with C, R0, N).
  static MarkingModel make(const queue::MarkingRule& spec,
                           const PlantParams& plant);

  queue::MarkingRule spec;
  PlantParams plant;
  double k0 = 1.0;         ///< characteristic gain
  double x_min = 0.0;      ///< DF engagement bound at the nonlinearity input
  double tau = 0.0;        ///< RED EWMA time constant, seconds (0 = none)
  bool pie = false;
  double sat_limit = 0.0;  ///< PIE clamp engagement limit L
  double pie_p0 = 0.0;     ///< PIE operating probability

  /// N(x) at nonlinearity-input amplitude x.
  Complex df(double x) const;
  Complex relative_df(double x) const { return df(x) / k0; }
  Complex neg_recip(double x) const { return -1.0 / relative_df(x); }

  /// H(jw) and its exact unwrapped phase.
  Complex filter(double w) const;
  double filter_phase(double w) const;
  bool has_filter() const { return tau > 0.0 || pie; }

  /// K0 * G(jw) * H(jw) — the left side of the characteristic equation.
  Complex loop_response(double w) const;

  /// Queue amplitude (packets) of a root at input amplitude x.
  double queue_amplitude(double x, double w) const;

  /// The queue level the loop operates around (midpoint of the
  /// thresholds; PIE: target_delay * C).
  double operating_queue() const;

  /// Upper bound of the amplitude search for the characteristic
  /// equation. H = 1 keeps the paper's x_min * factor (bit-identical to
  /// the pre-atlas solver); filtered rules additionally cover queue
  /// swings up to ~4 BDP translated through the largest |H| in the band
  /// — PIE's PI gain means physically small queue cycles sit at large
  /// controller-output amplitudes the x_min-relative range would miss.
  double x_search_max(double factor, double w_lo, double w_hi) const;

  /// Largest Re(-1/N0) over input amplitudes [x_min*(1+eps), x_max].
  double max_real_neg_recip(double x_max, double* arg_x = nullptr) const;
};

}  // namespace dtdctcp::analysis
