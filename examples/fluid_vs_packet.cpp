// Fluid model vs packet simulator: the same DCTCP configuration run
// through Eq. 1-3 and through the full discrete-event stack, printing
// both queue traces side by side.
//
//   $ ./build/examples/fluid_vs_packet [flows]
#include <cstdio>
#include <cstdlib>

#include "core/dtdctcp.h"

using namespace dtdctcp;

int main(int argc, char** argv) {
  const std::size_t flows = argc > 1 ? std::atoi(argv[1]) : 20;
  const double rtt = 100e-6;

  std::printf("N=%zu DCTCP flows, 10 Gbps, RTT 100 us, K=40\n\n", flows);

  // Packet-level run.
  core::DumbbellConfig cfg;
  cfg.flows = flows;
  cfg.bottleneck_bps = units::gbps(10);
  cfg.rtt = rtt;
  cfg.switch_buffer_packets = 100;
  cfg.marking = queue::MarkingRule::dctcp(40.0);
  cfg.warmup = 0.05;
  cfg.measure = 0.05;
  cfg.trace_queue = true;
  const auto pkt = core::run_dumbbell(cfg);

  // Fluid-model run (dynamic RTT so the high-N regime self-limits the
  // way the packet system does; see fluid_model.h).
  fluid::FluidParams fp;
  fp.capacity_pps = units::packets_per_second(cfg.bottleneck_bps, 1500);
  fp.flows = static_cast<double>(flows);
  fp.rtt = rtt;
  fp.g = 1.0 / 16.0;
  fp.marking = cfg.marking.in_packets(1500);
  fp.dynamic_rtt = true;
  fluid::FluidModel model(fp);
  model.run(0.05);  // transient
  stats::TimeSeries fluid_trace;
  model.run(0.05, &fluid_trace, 0.0005);

  std::printf("%12s | %10s %10s\n", "", "packet", "fluid");
  std::printf("%12s | %10.1f %10.1f\n", "queue mean",
              pkt.queue_mean, fluid_trace.summarize(0).mean());
  std::printf("%12s | %10.1f %10.1f\n", "queue sd", pkt.queue_stddev,
              fluid_trace.summarize(0).stddev());
  std::printf("%12s | %10.2f %10.2f\n", "alpha", pkt.alpha_mean,
              model.state().alpha);

  std::printf("\n# packet trace (ms, pkts)\n");
  const auto pkt_ds = pkt.queue_trace.downsample(40);
  for (const auto& s : pkt_ds.samples()) {
    std::printf("%8.2f %7.1f\n", s.time * 1e3, s.value);
  }
  std::printf("\n# fluid trace (ms, pkts)\n");
  const auto fluid_ds = fluid_trace.downsample(40);
  for (const auto& s : fluid_ds.samples()) {
    std::printf("%8.2f %7.1f\n", s.time * 1e3, s.value);
  }

  std::printf("\nThe fluid model captures the operating point and the "
              "oscillation tendency; the packet simulator adds burstiness "
              "and loss dynamics the aggregate model averages away.\n");
  return 0;
}
