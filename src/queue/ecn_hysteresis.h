// DT-DCTCP's double-threshold ECN marking — the paper's core
// contribution (Section III, Figure 2b).
//
// Fluid semantics: marking STARTS when the queue length rises to the
// lower threshold k_start (the paper's K1) and CONTINUES until the
// queue length "falls back to" the higher threshold k_stop (the paper's
// K2), k_start <= k_stop. On the large swings the paper's describing
// function analyzes (trough < K1, peak > K2) this marks exactly the
// interval [K1 rising -> K2 falling] of Figure 8: a hysteresis loop
// with a stabilizing phase-lead term (Eq. 27).
//
// The paper does not pin down the packet-level rule for trajectories
// that do not span both thresholds, so three defensible variants are
// provided (the ablation bench compares them):
//
//  * kTrendPeak (default) — marking stops at the first moment the queue
//    is in its falling phase while under K2. "Falling" is detected by
//    peak tracking: occupancy dropped `trend_margin` below the running
//    peak (individual dequeues during an aggregate rise do not count).
//    Sub-K2 swings stop marking at their peak.
//  * kDrainToStart — marking stops on the downward K2 crossing, or when
//    the queue drains below K1 without having reached K2. Sub-K2 swings
//    mark their entire excursion above K1.
//  * kHalfBand — every other arriving packet is marked while the queue
//    is inside [K1, K2), all packets at or above K2. This reads the
//    paper's two thresholds as a graduated marking band (RED-like ramp
//    at 50% intensity) rather than a stateful loop.
//
// Reset semantics across excursions (audited, intended, and pinned by
// tests/queue_test.cc re-entry tests — do not "fix" without re-gating
// the byte-identical fig10/fig11 kernels):
//
//  * kTrendPeak: `trough_` is NOT a global minimum. It re-anchors to
//    the current occupancy every time marking stops (including the
//    initial state, occupancy 0), and only then ratchets downward until
//    the next start. The "rising" gate `q >= trough_ + margin` is
//    therefore relative to the most recent descent, exactly what the
//    trend detector wants: after a full drain trough_ is ~0 and a fresh
//    K1 crossing (which needs q >= K1 >= margin) trivially satisfies
//    it. The gate's real work is during shallow dips that never stop
//    marking — and those keep their own recent trough.
//  * kHalfBand: `band_toggle_` deliberately carries across excursions
//    and full drains. The band rule is a stateless-in-occupancy 50%
//    duty cycle; preserving parity keeps the long-run marked fraction
//    of in-band arrivals exactly 1/2 regardless of how arrivals are
//    grouped into excursions. Resetting at each band entry would bias
//    odd-length excursions toward over-marking (ceil(n/2) marks every
//    time, never floor).
#pragma once

#include <algorithm>

#include "queue/fifo_base.h"

namespace dtdctcp::queue {

class EcnHysteresisQueue final : public FifoBase {
 public:
  /// `k_start` (paper K1) <= `k_stop` (paper K2), both in `unit`.
  /// `trend_margin` <= 0 selects the default max(1, (k_stop-k_start)/8)
  /// in the same unit (used by kTrendPeak only).
  EcnHysteresisQueue(std::size_t limit_bytes, std::size_t limit_packets,
                     double k_start, double k_stop, ThresholdUnit unit,
                     HysteresisVariant variant = HysteresisVariant::kTrendPeak,
                     double trend_margin = 0.0)
      : FifoBase(limit_bytes, limit_packets),
        k_start_(k_start),
        k_stop_(k_stop),
        unit_(unit),
        variant_(variant),
        margin_(trend_margin > 0.0
                    ? trend_margin
                    : std::max(1.0, (k_stop - k_start) / 8.0)) {}

  double start_threshold() const { return k_start_; }
  double stop_threshold() const { return k_stop_; }
  double trend_margin() const { return margin_; }
  ThresholdUnit unit() const { return unit_; }
  HysteresisVariant variant() const { return variant_; }
  bool marking() const { return marking_; }

 protected:
  // `final` so the DT-DCTCP hot path devirtualizes (see ecn_threshold.h).
  void after_admit(sim::Packet& pkt, SimTime now) final {
    (void)now;
    if (!pkt.ect) return;
    if (variant_ == HysteresisVariant::kHalfBand) {
      const double q = occupancy(unit_);
      if (q >= k_stop_) {
        pkt.ce = true;
        count_mark();
      } else if (q >= k_start_) {
        band_toggle_ = !band_toggle_;
        if (band_toggle_) {
          pkt.ce = true;
          count_mark();
        }
      }
      return;
    }
    if (marking_) {
      pkt.ce = true;
      count_mark();
    }
  }

  void on_occupancy_change(SimTime now, bool grew) final {
    (void)now;
    (void)grew;
    if (variant_ == HysteresisVariant::kHalfBand) return;  // stateless
    const double q = occupancy(unit_);
    if (!marking_) {
      trough_ = std::min(trough_, q);
      // Start: upward crossing of K1 during a rising phase (for the
      // trend variant the queue must have climbed trend_margin above
      // its running trough, so enqueue jitter during an aggregate
      // descent does not count), or (safety) occupancy at or above K2 —
      // unambiguous congestion even without a crossing.
      const bool rising = variant_ != HysteresisVariant::kTrendPeak ||
                          q >= trough_ + margin_;
      const bool crossed_start = prev_ < k_start_ && q >= k_start_;
      if ((crossed_start && rising) || q >= k_stop_) {
        marking_ = true;
        peak_ = q;
      }
    } else if (variant_ == HysteresisVariant::kTrendPeak) {
      peak_ = std::max(peak_, q);
      // Stop: the queue is in its falling phase (dropped trend_margin
      // below the running peak) while under K2, or it drained below the
      // start threshold entirely.
      const bool falling = q <= peak_ - margin_;
      if ((falling && q < k_stop_) || q < k_start_) {
        marking_ = false;
        trough_ = q;
      }
    } else {  // kDrainToStart
      const bool crossed_stop = prev_ >= k_stop_ && q < k_stop_;
      if (crossed_stop || q < k_start_) {
        marking_ = false;
        trough_ = q;
      }
    }
    prev_ = q;
  }

 private:
  double k_start_;
  double k_stop_;
  ThresholdUnit unit_;
  HysteresisVariant variant_;
  double margin_;
  bool marking_ = false;
  bool band_toggle_ = false;
  double prev_ = 0.0;
  double peak_ = 0.0;
  double trough_ = 0.0;
};

}  // namespace dtdctcp::queue
