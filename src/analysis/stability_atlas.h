// StabilityAtlas: parallel describing-function / bifurcation maps over
// the (marking rule x congestion controller x RTT x bandwidth x buffer)
// grid.
//
// For every cell the engine locates the limit-cycle onset in flow count
// (critical N*, by bisection — see critical_flows_bracket), then probes
// the predicted cycle at the onset: queue amplitude X (packets),
// frequency (Hz), whether the predicted swing would clip at the buffer,
// and the classical margins. Cells are mutually independent pure-math
// jobs, so the grid runs on the runner thread pool with results
// collected by index — the atlas (and its CSV) is byte-identical for
// any worker count, like every other sweep in this repo.
//
// The CSV is deterministic (shortest-round-trip doubles) and the
// companion gnuplot script turns it into onset-vs-RTT curves per
// (marking, cc) series — the "atlas" artifact CI uploads.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/margins.h"
#include "analysis/nyquist.h"
#include "analysis/transfer_function.h"
#include "queue/marking_rule.h"
#include "runner/runner.h"

namespace dtdctcp::analysis {

struct AtlasConfig {
  std::vector<queue::MarkingRule> markings;
  std::vector<CcVariant> ccs = {CcVariant::kDctcp};
  std::vector<double> rtts = {1e-3};          ///< seconds
  std::vector<double> rates_bps = {10e9};     ///< bottleneck bandwidth
  std::vector<double> buffers_pkts = {250.0}; ///< for clip detection
  double mss_bytes = 1500.0;  ///< converts rate to packets/s
  double g = 1.0 / 16.0;      ///< DCTCP alpha EWMA gain
  double d2tcp_d = 1.5;       ///< urgency exponent for kD2tcp cells
  int n_lo = 2;               ///< flow-count search range for the onset
  int n_hi = 512;
  /// Atlas default: discard sub-packet DF roots (min_queue_amplitude =
  /// 1.0) — a packet queue cannot express a cycle smaller than one
  /// packet, so such cells classify as effectively stable. Reset to 0
  /// for the paper's raw-DF behaviour.
  SolverOptions solver = [] {
    SolverOptions s;
    s.min_queue_amplitude = 1.0;
    return s;
  }();
};

struct AtlasCell {
  // Inputs (flattened row-major: marking, cc, rtt, rate, buffer).
  queue::MarkingRule marking;  ///< in packets
  CcVariant cc = CcVariant::kDctcp;
  double rtt = 0.0;
  double rate_bps = 0.0;
  double buffer_pkts = 0.0;

  // Limit-cycle onset over [n_lo, n_hi].
  CriticalFlows onset;

  // Predicted cycle at probe_flows (the onset N*, or n_hi for cells
  // stable across the whole range, where intersects stays false).
  int probe_flows = 0;
  bool intersects = false;
  double amplitude_pkts = 0.0;   ///< stable cycle, queue units
  double input_amplitude = 0.0;  ///< at the nonlinearity input
  double frequency_hz = 0.0;
  double omega = 0.0;
  /// The predicted swing leaves [0, buffer]: the DF solves the
  /// unconstrained balance, but the packet queue floors at empty and
  /// caps at the buffer, so the realized cycle is smaller than
  /// amplitude_pkts (see observable_amplitude).
  bool clipped = false;

  // Diagnostics at probe_flows.
  double operating_queue = 0.0;
  double max_re_locus = 0.0;
  double gain_margin_db = 0.0;
};

struct Atlas {
  AtlasConfig config;
  std::vector<AtlasCell> cells;
  runner::RunnerTelemetry telemetry;
};

/// Plant for one cell at `flows` (capacity = rate / (8 * mss)).
PlantParams atlas_plant(const AtlasConfig& cfg, const AtlasCell& cell,
                        int flows);

/// Fills the prediction fields of `cell` at a pinned flow count (no
/// onset search; onset/probe_flows are set to `flows`). This is the
/// per-N half of analyze_atlas_cell, exposed so tests and the
/// packet-sim cross-validation can predict one (cell, N) point.
AtlasCell predict_atlas_cell(const AtlasConfig& cfg, AtlasCell cell,
                             int flows);

/// Analyzes a single cell (inputs already filled in): onset bisection
/// over [n_lo, n_hi], then prediction at the onset. Exposed so tests
/// can target one cell without sweeping the grid.
AtlasCell analyze_atlas_cell(const AtlasConfig& cfg, AtlasCell cell);

/// Queue amplitude of `cell`'s predicted cycle after clipping the
/// swing to [0, buffer] — the amplitude estimate_oscillation can
/// actually see on a packet trace: (min(q0+X, B) - max(q0-X, 0)) / 2
/// with q0 the operating queue. Equals amplitude_pkts when unclipped.
double observable_amplitude(const AtlasCell& cell);

/// Runs the full grid on the runner pool.
Atlas run_stability_atlas(const AtlasConfig& cfg,
                          const runner::RunnerOptions& opts = {});

/// Compact label of a CC variant for tables, CSV, and bench JSON names
/// (markings print with queue::MarkingRule::label).
const char* cc_label(CcVariant cc);

/// Deterministic CSV of every cell (header + one row per cell).
void write_atlas_csv(const Atlas& atlas, std::ostream& out);

/// gnuplot script plotting critical N* vs RTT per (marking, cc) series
/// from `csv_name`.
void write_atlas_gnuplot(const Atlas& atlas, const std::string& csv_name,
                         std::ostream& out);

}  // namespace dtdctcp::analysis
