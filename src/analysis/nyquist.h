// Limit-cycle prediction via the describing-function method
// (paper Theorems 1 and 2, generalized to the atlas's AQM x CC grid).
//
// The characteristic equation K0*G(jw)*H(jw) = -1/N0(X) is solved for
// (input amplitude x, frequency w), where H is the marking rule's
// linear loop filter (unity for the paper's relay/hysteresis; RED's
// EWMA; PIE's PI controller — see analysis::MarkingModel). No solution
// with x in the DF's validity region means the queue is predicted
// stable; solutions are predicted limit cycles. Following the paper's
// reading of the Nyquist picture, when two cycles exist the
// smaller-amplitude one is unstable and the larger is the sustained
// (stable) oscillation.
#pragma once

#include <vector>

#include "analysis/describing_function.h"
#include "analysis/marking_model.h"
#include "analysis/transfer_function.h"
#include "queue/marking_rule.h"

namespace dtdctcp::analysis {

struct LimitCycle {
  double amplitude = 0.0;        ///< queue amplitude, packets
  double input_amplitude = 0.0;  ///< x at the nonlinearity input
                                 ///< (== amplitude when H = 1)
  double omega = 0.0;            ///< rad/s
  double residual = 0.0;  ///< |K0 G(jw) H(jw) + 1/N0(x)| at the root
  bool stable = false;    ///< predicted sustained oscillation
};

struct StabilityReport {
  bool intersects = false;          ///< limit cycle predicted
  std::vector<LimitCycle> cycles;   ///< sorted by amplitude
  double max_real_neg_recip = 0.0;  ///< rightmost point of -1/N0 locus
  double crossing_real = 0.0;  ///< Re K0*G*H at the first -180 crossing
  double crossing_omega = 0.0;      ///< and its frequency (0 if none)
  double min_locus_distance = 0.0;  ///< grid distance between the loci
};

struct SolverOptions {
  double x_max_factor = 200.0;  ///< search x in [x_valid, factor * x_valid]
  double w_lo = 1.0;            ///< rad/s search band
  double w_hi = 1e7;
  double tolerance = 1e-9;
  /// Roots whose queue amplitude is below this many packets are
  /// discarded. The default 0 keeps every DF root (the paper's
  /// figures); the atlas uses 1.0 — a packet queue cannot express a
  /// sub-packet cycle, so such roots classify the cell as stable.
  double min_queue_amplitude = 0.0;
};

/// Full DF stability analysis of the marking rule against the plant.
StabilityReport analyze(const PlantParams& plant,
                        const queue::MarkingRule& marking,
                        const SolverOptions& opt = {});

/// Result of the onset search: the bracketing pair around the
/// stable->unstable transition in flow count.
struct CriticalFlows {
  /// Smallest N in [n_lo, n_hi] predicted to limit-cycle; -1 when the
  /// whole range is predicted stable.
  int critical_n = -1;
  /// Largest N below critical_n verified stable (-1 when already
  /// unstable at n_lo, i.e. the onset lies at or below the range).
  int stable_n = -1;
};

/// Bisection search for the limit-cycle onset. `intersects` must be
/// monotone in N over [n_lo, n_hi] (stable below the onset, cycling at
/// and above it) — the paper's Theorem 1/2 regime, re-verified against
/// a linear scan by tests/analysis_test.cc. `plant.flows` is overridden
/// during the search. Costs O(log(n_hi - n_lo)) solver calls instead of
/// the O(n) full scan this replaced.
CriticalFlows critical_flows_bracket(PlantParams plant,
                                     const queue::MarkingRule& marking,
                                     int n_lo, int n_hi,
                                     const SolverOptions& opt = {});

/// Smallest integer flow count in [n_lo, n_hi] for which a limit cycle
/// is predicted; -1 when none intersects in the range.
int critical_flows(PlantParams plant, const queue::MarkingRule& marking,
                   int n_lo, int n_hi, const SolverOptions& opt = {});

/// Samples K0*G(jw)*H(jw) at `count` log-spaced frequencies (for
/// Nyquist plots / Fig. 9 output). count <= 0 returns an empty vector;
/// count == 1 samples w_lo.
std::vector<std::pair<double, Complex>> sample_plant_locus(
    const PlantParams& plant, const queue::MarkingRule& marking, double w_lo,
    double w_hi, int count);

/// Samples -1/N0(X) at `count` log-spaced amplitudes starting just above
/// the DF validity bound (every sample is finite; a factor <= 1 clamps
/// to a single-amplitude locus). Spec-only rules; kPie needs the plant
/// overload.
std::vector<std::pair<double, Complex>> sample_df_locus(
    const queue::MarkingRule& marking, double x_max_factor, int count);

/// Same against an explicit plant (required for kPie, whose clamp limit
/// depends on the operating point).
std::vector<std::pair<double, Complex>> sample_df_locus(
    const PlantParams& plant, const queue::MarkingRule& marking,
    double x_max_factor, int count);

}  // namespace dtdctcp::analysis
