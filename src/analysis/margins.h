// Classical stability margins of the DF loop.
//
// For the relay (DCTCP) the critical locus -1/N0 occupies the real-axis
// ray (-inf, -pi], so the usual Nyquist margins generalize naturally:
//   * gain margin   — how much loop gain the system tolerates before
//     K0*G(jw) reaches -pi at its phase crossing: pi / |Re K0*G(jw_pc)|;
//   * phase margin  — extra phase lag tolerated where |K0*G| = pi.
// For the hysteresis the same numbers are computed against the
// rightmost point of its -1/N0 locus (a conservative scalar summary;
// the full 2-D test lives in nyquist.h). The atlas rules follow the
// same recipe with their loop filter folded in: the loop is
// K0*G(jw)*H(jw) and the critical level is the rightmost point of the
// rule's own -1/N0 locus (pi for the relay, 1 for PIE's clamp).
//
// Results are NaN-free across the atlas grid's edge cases, pinned by
// tests: no -180deg crossing in the band (gain_margin 1e9 / 180 dB),
// |K0*G*H| never reaching the critical level (phase_margin 0), and a
// degenerate band w_lo >= w_hi (both defaults).
#pragma once

#include "analysis/describing_function.h"
#include "analysis/transfer_function.h"
#include "queue/marking_rule.h"

namespace dtdctcp::analysis {

struct Margins {
  double gain_margin = 0.0;      ///< multiplicative; > 1 means stable
  double gain_margin_db = 0.0;
  double phase_margin_deg = 0.0; ///< at the critical-magnitude crossing;
                                 ///< NaN-free: 0 when never reached
  double phase_crossing_w = 0.0; ///< rad/s of the -180 deg crossing
  double critical_level = 0.0;   ///< |max Re(-1/N0)|, pi for the relay
};

/// Computes the margins of plant+marking over [w_lo, w_hi].
Margins stability_margins(const PlantParams& plant,
                          const queue::MarkingRule& marking,
                          double w_lo = 1.0, double w_hi = 1e7);

}  // namespace dtdctcp::analysis
