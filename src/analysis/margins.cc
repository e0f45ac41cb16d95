#include "analysis/margins.h"

#include <cmath>

#include "analysis/marking_model.h"

namespace dtdctcp::analysis {

Margins stability_margins(const PlantParams& plant,
                          const queue::MarkingRule& marking, double w_lo,
                          double w_hi) {
  Margins m;
  const MarkingModel model = MarkingModel::make(marking, plant);
  m.critical_level =
      std::abs(model.max_real_neg_recip(model.x_min * 200.0));

  // No-crossing defaults; also what a degenerate band reports.
  m.gain_margin = 1e9;
  m.gain_margin_db = 180.0;
  if (!(w_lo > 0.0) || !(w_lo < w_hi)) return m;

  // Gain margin at the first -180 degree crossing of the loop phase.
  double crossings[4];
  int n = 0;
  if (model.has_filter()) {
    n = phase_crossings(
        plant, [&model](double w) { return model.filter_phase(w); }, w_lo,
        w_hi, crossings, 4);
  } else {
    n = phase_crossings(plant, w_lo, w_hi, crossings, 4);
  }
  if (n > 0) {
    m.phase_crossing_w = crossings[0];
    const double mag = std::abs(model.loop_response(crossings[0]));
    m.gain_margin = mag > 0.0 ? m.critical_level / mag : 1e9;
    m.gain_margin_db = 20.0 * std::log10(m.gain_margin);
  }

  // Phase margin: find where |K0*G*H| crosses the critical level
  // (downward, scanning up in frequency) and measure the headroom to
  // -180 degrees there. Stays at the 0 default when the magnitude
  // never reaches the critical level in the band.
  constexpr int kSamples = 4000;
  double prev_w = w_lo;
  double prev_mag = std::abs(model.loop_response(w_lo));
  for (int i = 1; i <= kSamples; ++i) {
    const double w =
        w_lo * std::pow(w_hi / w_lo, static_cast<double>(i) / kSamples);
    const double mag = std::abs(model.loop_response(w));
    if (prev_mag >= m.critical_level && mag < m.critical_level) {
      // Bisect the crossing.
      double lo = prev_w;
      double hi = w;
      for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (std::abs(model.loop_response(mid)) >= m.critical_level) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      const double wc = 0.5 * (lo + hi);
      const double phase = std::arg(model.loop_response(wc));
      m.phase_margin_deg = (phase + M_PI) * 180.0 / M_PI;
      break;
    }
    prev_w = w;
    prev_mag = mag;
  }
  return m;
}

}  // namespace dtdctcp::analysis
