// Marking nonlinearities used by the fluid model (and, in closed form,
// by the describing-function analysis). The rule is queue::MarkingRule,
// read through its packet-unit view (MarkingRule::in_packets): the
// thresholds here are always in packets.
#pragma once

#include <algorithm>
#include <cassert>

#include "queue/marking_rule.h"

namespace dtdctcp::fluid {

/// RED's *effective* per-arrival marking probability as implemented by
/// queue::RedQueue. Its configured ramp p_b(q) is 0 below min_th, linear
/// to max_p at max_th, then (gentle) linear to 1 at 2*max_th or
/// (non-gentle) a step to 1. Floyd's uniformized inter-mark spacing
/// (p_a = p_b / (1 - count * p_b)) makes the gap between marks uniform
/// on {1..1/p_b}, so the long-run marked fraction is ~2 p_b / (1 + p_b)
/// — about twice the ramp at small p. Modeled as min(2 p_b, 1); this is
/// what the fluid model and the describing function must see to match
/// the packet queue.
inline double red_effective_probability(const queue::RedConfig& red,
                                        double q) {
  double p = 1.0;
  if (q < red.min_th) {
    p = 0.0;
  } else if (q < red.max_th) {
    p = red.max_p * (q - red.min_th) / (red.max_th - red.min_th);
  } else if (red.gentle && q < 2.0 * red.max_th) {
    p = red.max_p + (1.0 - red.max_p) * (q - red.max_th) / red.max_th;
  }
  return std::min(1.0, 2.0 * p);
}

/// Stateful evaluation of the marking rule along a queue trajectory.
/// For the single threshold the state is ignored; for hysteresis the
/// automaton mirrors queue::EcnHysteresisQueue's trend-peak loop (for
/// every packet variant, like the DF closed form); for the RED ramp the
/// output is the memoryless effective probability (the EWMA is a linear
/// filter handled by the analysis loop model; the fluid trajectory is
/// already smooth). PIE is stateful in time, not in q — it lives in the
/// analysis layer's quasi-linear loop model (analysis::MarkingModel) —
/// and drop-tail and CoDel do not mark on occupancy at all.
class MarkingAutomaton {
 public:
  /// Whether the automaton can run `rule` (see above).
  static bool models(const queue::MarkingRule& rule) {
    return rule.kind == queue::MarkingKind::kThreshold ||
           rule.kind == queue::MarkingKind::kHysteresis ||
           rule.kind == queue::MarkingKind::kRed;
  }

  /// `trend_margin` <= 0 selects max(1, (k_stop-k_start)/8); the fluid
  /// integrator passes a small margin since its trajectory is smooth.
  explicit MarkingAutomaton(const queue::MarkingRule& rule,
                            double trend_margin = 0.0)
      : rule_(rule),
        margin_(trend_margin > 0.0
                    ? trend_margin
                    : std::max(1.0, (rule.k_stop - rule.k_start) / 8.0)) {
    assert(models(rule) && rule.unit == queue::ThresholdUnit::kPackets);
  }

  /// Feeds the next queue sample; returns p in [0, 1] ({0, 1} for the
  /// threshold rules).
  double update(double q) {
    if (rule_.kind == queue::MarkingKind::kThreshold) {
      prev_ = q;
      return q >= rule_.k_start ? 1.0 : 0.0;
    }
    if (rule_.kind == queue::MarkingKind::kRed) {
      prev_ = q;
      return red_effective_probability(rule_.red, q);
    }
    if (!marking_) {
      trough_ = std::min(trough_, q);
      const bool rising = q >= trough_ + margin_;
      const bool crossed_start = prev_ < rule_.k_start && q >= rule_.k_start;
      if ((crossed_start && rising) || q >= rule_.k_stop) {
        marking_ = true;
        peak_ = q;
      }
    } else {
      peak_ = std::max(peak_, q);
      const bool falling = q <= peak_ - margin_;
      if ((falling && q < rule_.k_stop) || q < rule_.k_start) {
        marking_ = false;
        trough_ = q;
      }
    }
    prev_ = q;
    return marking_ ? 1.0 : 0.0;
  }

  bool marking() const { return marking_; }
  void reset(double q0 = 0.0) {
    marking_ = false;
    prev_ = q0;
    peak_ = q0;
    trough_ = q0;
  }

 private:
  queue::MarkingRule rule_;
  double margin_;
  bool marking_ = false;
  double prev_ = 0.0;
  double peak_ = 0.0;
  double trough_ = 0.0;
};

}  // namespace dtdctcp::fluid
