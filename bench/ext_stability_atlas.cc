// Extension: stability atlas — describing-function / bifurcation maps
// across marking rules (DCTCP relay, DT-DCTCP hysteresis, RED ramp,
// PIE) and congestion controllers (DCTCP, ECN-Reno), over RTT. For
// every cell the DF layer locates the limit-cycle onset N* by bisection
// and predicts the sustained cycle (amplitude, frequency) at the onset.
//
// The grid is pure math and runs on the parallel runner; rows print
// from the ordered result vector, so stdout is byte-identical for any
// worker count. A second, packet-level section cross-validates
// representative cells: the same (marking, cc, RTT, rate, buffer, N)
// runs through core::run_oscillation_probe and the observed oscillation
// must agree with the DF prediction within a factor of 2 on amplitude
// and frequency (stable cells must show no comparable oscillation).
// Any violation fails the bench (non-zero exit) — this is the CI gate
// the atlas ships under.
//
// Exports:
//   * DTDCTCP_CSV_DIR    — atlas CSV + gnuplot script
//   * DTDCTCP_ATLAS_JSON — google-benchmark-shaped JSON carrying
//                          critical_n per cell, merged into
//                          BENCH_simcore by CI and gated exactly by
//                          tools/bench_merge.py (any onset shift fails)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/stability_atlas.h"
#include "bench/bench_common.h"
#include "core/oscillation_probe.h"
#include "runner/runner.h"
#include "util/csv.h"

using namespace dtdctcp;

namespace {

analysis::AtlasConfig default_grid() {
  analysis::AtlasConfig cfg;
  // The gated grid runs the DCTCP controller only: every predicted
  // cycle below is covered by the packet-level validation section, and
  // ECN-Reno cells at these datacenter operating points sit far past
  // their onset (N* = n_lo with heavily clipped extrapolated
  // amplitudes), where the quasi-linear DF has nothing quantitative to
  // say. Cross-CC maps stay available via `dtdctcp_cli atlas --cc ...`.
  // Stock PIE gains target internet RTTs; at datacenter rates the
  // integrator would need seconds to converge. Scale both gains so the
  // controller acts within the simulated window (same ratio).
  queue::PieConfig pie;
  pie.alpha = 125.0;
  pie.beta = 1250.0;
  cfg.markings = {
      queue::MarkingRule::dctcp(40.0),
      queue::MarkingRule::dt_dctcp(20.0, 40.0),
      queue::MarkingRule::aqm(queue::RedConfig{.min_th = 30.0, .max_th = 90.0}),
      queue::MarkingRule::aqm(queue::RedConfig{.min_th = 20.0, .max_th = 40.0}),
      queue::MarkingRule::aqm(pie),
  };
  cfg.ccs = {analysis::CcVariant::kDctcp};
  cfg.rtts = {100e-6, 500e-6, 1e-3};
  cfg.rates_bps = {10e9};
  cfg.buffers_pkts = {250.0};
  cfg.n_lo = 2;
  cfg.n_hi = 512;
  return cfg;
}

void maybe_write_atlas_artifacts(const analysis::Atlas& atlas) {
  const char* dir = std::getenv("DTDCTCP_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string csv_path = std::string(dir) + "/ext_stability_atlas.csv";
  auto csv = open_csv(csv_path);
  if (csv.is_open()) {
    analysis::write_atlas_csv(atlas, csv);
    std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
  }
  const std::string gp_path = std::string(dir) + "/ext_stability_atlas.gp";
  auto gp = open_csv(gp_path);
  if (gp.is_open()) {
    analysis::write_atlas_gnuplot(atlas, "ext_stability_atlas.csv", gp);
    std::fprintf(stderr, "wrote %s\n", gp_path.c_str());
  }
}

void maybe_write_atlas_json(const analysis::Atlas& atlas) {
  const char* path = std::getenv("DTDCTCP_ATLAS_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "could not open %s for atlas JSON\n", path);
    return;
  }
  out << "{\n  \"context\": {\"executable\": \"ext_stability_atlas\"},\n"
      << "  \"benchmarks\": [";
  for (std::size_t i = 0; i < atlas.cells.size(); ++i) {
    const auto& c = atlas.cells[i];
    char rtt[32];
    std::snprintf(rtt, sizeof(rtt), "%gus", c.rtt * 1e6);
    const std::string name = std::string("atlas/") +
                             c.marking.label() + "/" +
                             analysis::cc_label(c.cc) + "/" + rtt;
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << name
        << "\", \"run_name\": \"" << name
        << "\", \"run_type\": \"iteration\", \"iterations\": 1"
        << ", \"critical_n\": " << c.onset.critical_n
        << ", \"amplitude_pkts\": "
        << CsvWriter::format_double(c.amplitude_pkts)
        << ", \"frequency_hz\": "
        << CsvWriter::format_double(c.frequency_hz) << "}";
  }
  out << "\n  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path);
}

// Cells re-run at packet level. Flow counts are the current onsets
// (pinned, so a prediction drift shows up as a validation failure here
// and as a critical_n shift in the gated JSON).
struct ValidationCell {
  const char* why;
  std::size_t marking_index;  ///< into default_grid().markings
  analysis::CcVariant cc;
  double rtt;
  std::size_t flows;
  double buffer_pkts;
};
constexpr ValidationCell kValidation[] = {
    {"paper relay onset", 0, analysis::CcVariant::kDctcp, 1e-3, 48, 250.0},
    {"hysteresis onset", 1, analysis::CcVariant::kDctcp, 1e-3, 52, 250.0},
    {"RED ramp onset", 3, analysis::CcVariant::kDctcp, 1e-3, 31, 250.0},
    {"PIE predicted stable", 4, analysis::CcVariant::kDctcp, 1e-3, 12,
     250.0},
};

}  // namespace

int main() {
  bench::header("Extension",
                "stability atlas: DF/bifurcation maps across AQMs and CCs");
  std::printf("limit-cycle onset N* in [2, 512] per (marking, cc, RTT) at "
              "10 Gbps, 250-pkt buffer\n\n");

  const analysis::AtlasConfig cfg = default_grid();
  const auto atlas =
      analysis::run_stability_atlas(cfg, bench::runner_options("atlas"));
  bench::report_telemetry("atlas", atlas.telemetry);

  std::printf("%-10s %-9s %7s | %5s %5s | %9s %9s %4s %8s\n", "marking",
              "cc", "rtt_us", "N*", "N_ok", "amp_pkts", "freq_hz", "clip",
              "gm_db");
  for (std::size_t i = 0; i < atlas.cells.size(); ++i) {
    const auto& c = atlas.cells[i];
    if (i > 0 && i % (cfg.ccs.size() * cfg.rtts.size()) == 0) {
      std::printf("\n");
    }
    std::printf(
        "%-10s %-9s %7.0f | %5d %5d | %9.2f %9.1f %4s %8.2f\n",
        c.marking.label().c_str(), analysis::cc_label(c.cc),
        c.rtt * 1e6, c.onset.critical_n, c.onset.stable_n, c.amplitude_pkts,
        c.frequency_hz, c.clipped ? "yes" : "no", c.gain_margin_db);
  }
  maybe_write_atlas_artifacts(atlas);
  maybe_write_atlas_json(atlas);

  bench::section("packet-level cross-validation (factor-2 envelope)");
  const std::size_t cells = sizeof(kValidation) / sizeof(kValidation[0]);
  std::vector<core::OscillationProbeConfig> probes(cells);
  std::vector<analysis::AtlasCell> predictions(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const auto& v = kValidation[i];
    core::OscillationProbeConfig p;
    p.marking = cfg.markings[v.marking_index];
    p.cc = v.cc;
    p.flows = v.flows;
    p.rate_bps = cfg.rates_bps[0];
    p.rtt = v.rtt;
    p.buffer_pkts = v.buffer_pkts;
    p.warmup = 0.2;
    p.measure = bench::scaled(0.4, 0.2);
    p.seed = 1;
    probes[i] = p;

    analysis::AtlasCell cell;
    cell.marking = p.marking;
    cell.cc = p.cc;
    cell.rtt = p.rtt;
    cell.rate_bps = p.rate_bps;
    cell.buffer_pkts = p.buffer_pkts;
    predictions[i] =
        analysis::predict_atlas_cell(cfg, cell, static_cast<int>(p.flows));
  }

  runner::RunnerTelemetry vtm;
  const auto observed = runner::run_jobs(
      cells,
      [&](std::size_t i) { return core::run_oscillation_probe(probes[i]); },
      bench::runner_options("validate"), &vtm);
  bench::report_telemetry("validate", vtm);

  int failures = 0;
  std::printf("%-22s %-10s %5s | %9s %9s | %9s %9s | %s\n", "cell",
              "marking", "N", "pred_amp", "obs_amp", "pred_hz", "obs_hz",
              "verdict");
  for (std::size_t i = 0; i < cells; ++i) {
    const auto& v = kValidation[i];
    const auto& r = observed[i];
    const auto& c = predictions[i];
    // The DF solves the unconstrained fundamental balance; the packet
    // queue floors at empty and caps at the buffer, so the comparable
    // prediction is the clipped (observable) amplitude.
    const double pred_amp = analysis::observable_amplitude(c);
    bool ok;
    if (c.intersects) {
      ok = core::within_factor(r.amplitude_pkts, pred_amp, 2.0) &&
           core::within_factor(r.frequency_hz, c.frequency_hz, 2.0);
    } else {
      // Stable prediction: no sustained oscillation. Stochastic marking
      // still wiggles the queue, so demand the RMS-equivalent amplitude
      // stays under half the operating queue (with a 5-pkt floor for
      // cells operating near empty).
      ok = r.amplitude_rms_pkts <
           std::max(5.0, 0.5 * c.operating_queue);
    }
    failures += ok ? 0 : 1;
    std::printf("%-22s %-10s %5zu | %9.2f %9.2f | %9.1f %9.1f | %s\n",
                v.why, probes[i].marking.label().c_str(),
                v.flows, pred_amp,
                c.intersects ? r.amplitude_pkts : r.amplitude_rms_pkts,
                c.frequency_hz, r.frequency_hz, ok ? "ok" : "FAIL");
  }

  bench::expectation(
      "Relay and hysteresis cells reproduce the paper's onset (DT-DCTCP "
      "needs slightly more flows than DCTCP to cycle at 1 ms); the "
      "narrow RED ramp cycles once its averaged ramp runs out of slope "
      "headroom; PIE holds the delay target with every DF root below "
      "one packet (effectively stable). Every predicted cycle above "
      "agrees with the packet simulator within a factor of 2 on "
      "(clipped) amplitude and frequency, and the stable cell shows no "
      "sustained oscillation.");
  if (failures > 0) {
    std::fprintf(stderr, "%d validation cell(s) outside the factor-2 "
                 "envelope\n", failures);
    return 1;
  }
  return 0;
}
