#include "analysis/stability_atlas.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/csv.h"

namespace dtdctcp::analysis {

PlantParams atlas_plant(const AtlasConfig& cfg, const AtlasCell& cell,
                        int flows) {
  PlantParams p;
  p.capacity_pps = cell.rate_bps / (8.0 * cfg.mss_bytes);
  p.flows = static_cast<double>(flows);
  p.rtt = cell.rtt;
  p.g = cfg.g;
  p.cc = cell.cc;
  p.d2tcp_d = cfg.d2tcp_d;
  return p;
}

AtlasCell predict_atlas_cell(const AtlasConfig& cfg, AtlasCell cell,
                             int flows) {
  cell.probe_flows = flows;
  cell.amplitude_pkts = 0.0;
  cell.input_amplitude = 0.0;
  cell.frequency_hz = 0.0;
  cell.omega = 0.0;

  const PlantParams plant = atlas_plant(cfg, cell, flows);
  const StabilityReport report = analyze(plant, cell.marking, cfg.solver);
  cell.intersects = report.intersects;
  for (const auto& lc : report.cycles) {
    if (!lc.stable) continue;
    cell.amplitude_pkts = lc.amplitude;
    cell.input_amplitude = lc.input_amplitude;
    cell.omega = lc.omega;
    cell.frequency_hz = lc.omega / (2.0 * M_PI);
  }
  cell.max_re_locus = report.max_real_neg_recip;

  const MarkingModel model = MarkingModel::make(cell.marking, plant);
  cell.operating_queue = model.operating_queue();
  cell.clipped =
      cell.intersects &&
      (cell.operating_queue + cell.amplitude_pkts > cell.buffer_pkts ||
       cell.amplitude_pkts > cell.operating_queue);

  cell.gain_margin_db =
      stability_margins(plant, cell.marking, cfg.solver.w_lo, cfg.solver.w_hi)
          .gain_margin_db;
  return cell;
}

AtlasCell analyze_atlas_cell(const AtlasConfig& cfg, AtlasCell cell) {
  cell.onset = critical_flows_bracket(atlas_plant(cfg, cell, cfg.n_lo),
                                      cell.marking, cfg.n_lo, cfg.n_hi,
                                      cfg.solver);
  const CriticalFlows onset = cell.onset;
  cell = predict_atlas_cell(
      cfg, cell, onset.critical_n > 0 ? onset.critical_n : cfg.n_hi);
  cell.onset = onset;
  return cell;
}

double observable_amplitude(const AtlasCell& cell) {
  if (!cell.intersects) return 0.0;
  const double lo =
      std::max(cell.operating_queue - cell.amplitude_pkts, 0.0);
  const double hi =
      std::min(cell.operating_queue + cell.amplitude_pkts,
               cell.buffer_pkts);
  return std::max(hi - lo, 0.0) / 2.0;
}

Atlas run_stability_atlas(const AtlasConfig& cfg,
                          const runner::RunnerOptions& opts) {
  Atlas atlas;
  atlas.config = cfg;

  // Flatten the grid row-major so the output order (and therefore the
  // CSV) is independent of the worker count.
  std::vector<AtlasCell> grid;
  grid.reserve(cfg.markings.size() * cfg.ccs.size() * cfg.rtts.size() *
               cfg.rates_bps.size() * cfg.buffers_pkts.size());
  for (const auto& marking : cfg.markings) {
    for (CcVariant cc : cfg.ccs) {
      for (double rtt : cfg.rtts) {
        for (double rate : cfg.rates_bps) {
          for (double buffer : cfg.buffers_pkts) {
            AtlasCell cell;
            cell.marking = marking;
            cell.cc = cc;
            cell.rtt = rtt;
            cell.rate_bps = rate;
            cell.buffer_pkts = buffer;
            grid.push_back(cell);
          }
        }
      }
    }
  }

  atlas.cells = runner::run_jobs(
      grid.size(),
      [&](std::size_t i) { return analyze_atlas_cell(cfg, grid[i]); }, opts,
      &atlas.telemetry);
  return atlas;
}

const char* cc_label(CcVariant cc) {
  switch (cc) {
    case CcVariant::kDctcp:
      return "dctcp";
    case CcVariant::kEcnReno:
      return "ecn-reno";
    case CcVariant::kD2tcp:
      return "d2tcp";
  }
  return "?";
}

void write_atlas_csv(const Atlas& atlas, std::ostream& out) {
  CsvWriter csv(out);
  csv.row({"marking", "cc", "rtt_s", "rate_bps", "buffer_pkts",
           "critical_n", "stable_n", "probe_flows", "intersects",
           "amplitude_pkts", "observable_amplitude", "input_amplitude",
           "frequency_hz", "omega", "clipped", "operating_queue",
           "max_re_locus", "gain_margin_db"});
  for (const auto& c : atlas.cells) {
    csv.row({c.marking.label(), cc_label(c.cc),
             CsvWriter::format_double(c.rtt),
             CsvWriter::format_double(c.rate_bps),
             CsvWriter::format_double(c.buffer_pkts),
             std::to_string(c.onset.critical_n),
             std::to_string(c.onset.stable_n),
             std::to_string(c.probe_flows), c.intersects ? "1" : "0",
             CsvWriter::format_double(c.amplitude_pkts),
             CsvWriter::format_double(observable_amplitude(c)),
             CsvWriter::format_double(c.input_amplitude),
             CsvWriter::format_double(c.frequency_hz),
             CsvWriter::format_double(c.omega), c.clipped ? "1" : "0",
             CsvWriter::format_double(c.operating_queue),
             CsvWriter::format_double(c.max_re_locus),
             CsvWriter::format_double(c.gain_margin_db)});
  }
}

void write_atlas_gnuplot(const Atlas& atlas, const std::string& csv_name,
                         std::ostream& out) {
  out << "# Stability atlas: limit-cycle onset N* vs RTT, one series per\n"
         "# (marking rule, congestion controller). Generated alongside\n"
         "# the CSV; run `gnuplot <this file>` in the same directory.\n"
         "set datafile separator ','\n"
         "set terminal pngcairo size 960,640\n"
         "set output 'stability_atlas.png'\n"
         "set logscale x\n"
         "set xlabel 'RTT (s)'\n"
         "set ylabel 'critical flow count N*'\n"
         "set key outside right\n"
         "plot ";
  bool first = true;
  for (const auto& marking : atlas.config.markings) {
    for (CcVariant cc : atlas.config.ccs) {
      if (!first) out << ", \\\n     ";
      first = false;
      const std::string series =
          marking.label() + " / " + cc_label(cc);
      out << "'" << csv_name
          << "' using 3:(strcol(1) eq '" << marking.label()
          << "' && strcol(2) eq '" << cc_label(cc)
          << "' ? ($6 > 0 ? $6 : 1/0) : 1/0) with linespoints title '"
          << series << "'";
    }
  }
  out << "\n";
}

}  // namespace dtdctcp::analysis
