#include "core/oscillation_probe.h"

#include <algorithm>
#include <cmath>

#include "fluid/fluid_model.h"

namespace dtdctcp::core {

namespace {

tcp::CcMode cc_mode(analysis::CcVariant cc) {
  switch (cc) {
    case analysis::CcVariant::kEcnReno:
      return tcp::CcMode::kEcnReno;
    case analysis::CcVariant::kD2tcp:
      return tcp::CcMode::kD2tcp;
    case analysis::CcVariant::kDctcp:
      break;
  }
  return tcp::CcMode::kDctcp;
}

}  // namespace

DumbbellConfig probe_dumbbell_config(const OscillationProbeConfig& cfg) {
  DumbbellConfig d;
  d.flows = cfg.flows;
  d.bottleneck_bps = cfg.rate_bps;
  d.edge_bps = cfg.rate_bps;
  d.rtt = cfg.rtt;
  d.tcp.mode = cc_mode(cfg.cc);
  d.tcp.mss_bytes = static_cast<std::uint32_t>(cfg.mss_bytes);
  d.warmup = cfg.warmup;
  d.measure = cfg.measure;
  d.seed = cfg.seed;
  d.trace_queue = true;

  d.switch_buffer_packets =
      static_cast<std::size_t>(std::max(1.0, cfg.buffer_pkts));
  // RED's and PIE's marking draws follow the run seed.
  d.marking = cfg.marking.reseeded(cfg.seed);
  return d;
}

OscillationProbeResult run_oscillation_probe(
    const OscillationProbeConfig& cfg) {
  const DumbbellConfig d = probe_dumbbell_config(cfg);
  const DumbbellResult r = run_dumbbell(d);

  OscillationProbeResult out;
  out.queue_mean = r.queue_mean;
  out.queue_stddev = r.queue_stddev;
  out.utilization = r.utilization;
  // The raw trace has one sample per queue event, so mean crossings
  // would track packet noise. Average into RTT/4 bins first (the cycles
  // under study span several RTTs) and demand crossings clear a band of
  // half the binned stddev.
  const stats::TimeSeries binned =
      stats::bin_mean(r.queue_trace, cfg.rtt / 4.0, cfg.warmup);
  out.amplitude_pkts = fluid::oscillation_amplitude(binned, 0.0);
  const double binned_sd = binned.summarize(0.0).stddev();
  out.amplitude_rms_pkts = std::sqrt(2.0) * binned_sd;
  const double band = 0.5 * binned_sd;
  const auto osc = stats::estimate_oscillation(binned, 0.0, band);
  out.frequency_hz = osc.frequency_hz;
  out.cycles = osc.cycles;
  return out;
}

bool within_factor(double observed, double predicted, double factor) {
  if (!(observed > 0.0) || !(predicted > 0.0) || !(factor >= 1.0)) {
    return false;
  }
  const double ratio = observed / predicted;
  return ratio <= factor && ratio >= 1.0 / factor;
}

}  // namespace dtdctcp::core
