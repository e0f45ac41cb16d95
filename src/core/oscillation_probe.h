// Packet-level cross-validation of the stability atlas: runs one
// dumbbell experiment shaped like an atlas cell — same marking rule,
// congestion controller, RTT, bandwidth, and buffer — with the queue
// trace on, and summarizes the observed oscillation so the DF-predicted
// (amplitude, frequency) can be checked against it.
//
// The atlas-level agreement envelope is a factor of 2 on both numbers:
// the DF method keeps only the fundamental harmonic and the packet
// simulator adds discretization, slow-start transients, and stochastic
// marking (RED/PIE draw per-packet), so tighter envelopes would pin
// noise rather than physics. Tests and `ext_stability_atlas` assert
// this envelope on representative cells.
#pragma once

#include <cstdint>

#include "analysis/stability_atlas.h"
#include "core/dumbbell.h"
#include "queue/marking_rule.h"
#include "stats/oscillation.h"

namespace dtdctcp::core {

struct OscillationProbeConfig {
  queue::MarkingRule marking = queue::MarkingRule::dctcp(40.0);
  analysis::CcVariant cc = analysis::CcVariant::kDctcp;
  std::size_t flows = 10;
  double rate_bps = 10e9;
  double rtt = 1e-4;            ///< seconds
  double buffer_pkts = 250.0;   ///< bottleneck buffer, packets
  double mss_bytes = 1500.0;
  double warmup = 0.2;          ///< seconds discarded before measuring
  double measure = 0.4;
  std::uint64_t seed = 1;
};

struct OscillationProbeResult {
  double amplitude_pkts = 0.0;  ///< observed peak-to-peak / 2, packets
  /// sqrt(2) * binned stddev: the amplitude a pure sine of the same
  /// power would have. Robust to isolated spikes, so it is the number
  /// to compare against a "no sustained oscillation" bound.
  double amplitude_rms_pkts = 0.0;
  double frequency_hz = 0.0;    ///< 0 when fewer than 2 cycles observed
  std::size_t cycles = 0;
  double queue_mean = 0.0;
  double queue_stddev = 0.0;
  double utilization = 0.0;
};

/// Builds the DumbbellConfig an atlas cell maps to (exposed so tests
/// can inspect the queue/CC wiring without running the simulation).
DumbbellConfig probe_dumbbell_config(const OscillationProbeConfig& cfg);

/// Runs the packet simulation and measures the queue oscillation.
OscillationProbeResult run_oscillation_probe(
    const OscillationProbeConfig& cfg);

/// True when `observed` and `predicted` agree within `factor` (both
/// must be positive; factor >= 1).
bool within_factor(double observed, double predicted, double factor);

}  // namespace dtdctcp::core
