// The switch marking rule — DCTCP's single threshold K, DT-DCTCP's
// K1/K2 hysteresis, plain drop-tail, or a classic AQM (RED, PIE, CoDel)
// — and the one description of it every layer takes. A rule translates
// three ways, each exactly once: queue_factory() builds the port queue
// (defined in queue/factory.cc, the layer that knows the disciplines),
// in_packets() is the view the fluid model and the describing-function
// analysis read, and label()/parse() are its one text grammar:
//
//   droptail
//   dctcp:K[,unit=bytes][,at=dequeue]
//   dt:K1,K2[,unit=bytes][,variant=drain-to-start|half-band]
//   red:MIN,MAX[,max_p=P][,weight=W][,gentle=0][,ecn=0][,seed=S]
//   pie[:TARGETus][,update=Tus][,alpha=A][,beta=B][,seed=S]
//   codel[:TARGETus][,interval=Tus]
//
// Keyed fields print only when they differ from their default, so
// parse(label(r)) == r. Fields a kind does not use stay at their
// defaults. See docs/architecture.md, "Marking rules".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "queue/aqm_config.h"
#include "util/units.h"

namespace dtdctcp::sim {
class QueueDisc;
}  // namespace dtdctcp::sim

namespace dtdctcp::queue {

enum class MarkingKind {
  kDropTail,    ///< no marking, loss only
  kThreshold,   ///< DCTCP: mark while the queue is >= K
  kHysteresis,  ///< DT-DCTCP: start at K1 rising, stop below K2 falling
  kRed,         ///< RED probability ramp on the EWMA queue
  kPie,         ///< PIE: PI controller on queueing delay
  kCodel,       ///< CoDel: sojourn-time control law
};

struct MarkingRule {
  MarkingKind kind = MarkingKind::kThreshold;
  double k_start = 40.0;  ///< K (threshold) or K1 (hysteresis), in `unit`
  double k_stop = 40.0;   ///< K (threshold) or K2 (hysteresis), in `unit`
  ThresholdUnit unit = ThresholdUnit::kPackets;
  HysteresisVariant variant = HysteresisVariant::kTrendPeak;
  MarkPoint mark_point = MarkPoint::kArrival;  ///< threshold only
  RedConfig red{};
  PieConfig pie{};
  CodelConfig codel{};

  static constexpr MarkingRule drop_tail() {
    return {.kind = MarkingKind::kDropTail};
  }
  /// DCTCP: mark when the instantaneous queue is at least `k`.
  static constexpr MarkingRule dctcp(
      double k, ThresholdUnit unit = ThresholdUnit::kPackets,
      MarkPoint at = MarkPoint::kArrival) {
    return {.k_start = k, .k_stop = k, .unit = unit, .mark_point = at};
  }
  /// DT-DCTCP: start marking at `k1` (rising), stop at `k2` (falling).
  static constexpr MarkingRule dt_dctcp(
      double k1, double k2, ThresholdUnit unit = ThresholdUnit::kPackets,
      HysteresisVariant variant = HysteresisVariant::kTrendPeak) {
    return {.kind = MarkingKind::kHysteresis, .k_start = k1, .k_stop = k2,
            .unit = unit, .variant = variant};
  }
  static constexpr MarkingRule aqm(const RedConfig& cfg) {
    return {.kind = MarkingKind::kRed, .red = cfg};
  }
  static constexpr MarkingRule aqm(const PieConfig& cfg) {
    return {.kind = MarkingKind::kPie, .pie = cfg};
  }
  static constexpr MarkingRule aqm(const CodelConfig& cfg) {
    return {.kind = MarkingKind::kCodel, .codel = cfg};
  }

  bool operator==(const MarkingRule&) const = default;

  /// Queue-discipline factory for a switch egress port with the given
  /// buffer limits (0 = unlimited in that unit). `drain_bps` is the line
  /// rate of the port; only PIE's delay estimator reads it.
  std::function<std::unique_ptr<sim::QueueDisc>()> queue_factory(
      std::size_t limit_bytes, std::size_t limit_packets,
      DataRate drain_bps = 0.0) const;

  /// The same rule with byte thresholds converted at `mss_bytes` per
  /// packet: the view the fluid model and the DF analysis take.
  MarkingRule in_packets(double mss_bytes) const {
    if (unit != ThresholdUnit::kBytes) return *this;
    MarkingRule r = *this;
    r.k_start /= mss_bytes;
    r.k_stop /= mss_bytes;
    r.unit = ThresholdUnit::kPackets;
    return r;
  }

  /// The same rule with its random marking draws (RED, PIE) seeded by
  /// `seed`; the deterministic rules come back unchanged.
  MarkingRule reseeded(std::uint64_t seed) const {
    MarkingRule r = *this;
    if (kind == MarkingKind::kRed) r.red.seed = seed;
    if (kind == MarkingKind::kPie) r.pie.seed = seed;
    return r;
  }

  /// The queue level a rule that marks on occupancy centers around, in
  /// its thresholds' unit: the midpoint of K1/K2 (RED: of its ramp).
  double midpoint() const {
    return kind == MarkingKind::kRed ? 0.5 * (red.min_th + red.max_th)
                                     : 0.5 * (k_start + k_stop);
  }

  /// The rule in the grammar above, e.g. "dt:20,40".
  std::string label() const;

  /// Parses a label; nullopt on any malformed input: an unknown kind or
  /// key, a repeated key, non-numeric or trailing text, a negative
  /// threshold, K1 > K2 (K1 == K2 is allowed), RED's MIN >= MAX, or a
  /// time without its `us`.
  static std::optional<MarkingRule> parse(std::string_view label);
};

}  // namespace dtdctcp::queue
