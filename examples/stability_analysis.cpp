// Stability analysis walk-through: the describing-function method of
// the paper applied end to end — plant, DFs, characteristic equation,
// predicted limit cycle, and a fluid-model confirmation.
//
//   $ ./build/examples/stability_analysis [flows] [rtt_ms]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/dtdctcp.h"

using namespace dtdctcp;

int main(int argc, char** argv) {
  const double flows = argc > 1 ? std::atof(argv[1]) : 80.0;
  const double rtt = (argc > 2 ? std::atof(argv[2]) : 1.0) * 1e-3;

  analysis::PlantParams plant;
  plant.capacity_pps = units::packets_per_second(units::gbps(10), 1500);
  plant.flows = flows;
  plant.rtt = rtt;
  plant.g = 1.0 / 16.0;

  std::printf("Plant: C=%.0f pkts/s, N=%.0f, R0=%.2f ms, g=1/16\n",
              plant.capacity_pps, flows, rtt * 1e3);

  const auto specs = {queue::MarkingRule::dctcp(40.0),
                      queue::MarkingRule::dt_dctcp(30.0, 50.0)};
  for (const auto& spec : specs) {
    const char* name = spec.kind == queue::MarkingKind::kHysteresis
                           ? "DT-DCTCP"
                           : "DCTCP";
    const auto report = analysis::analyze(plant, spec);
    std::printf("\n%s (K0 = 1/%.0f):\n", name, spec.k_stop);
    std::printf("  locus crosses the negative real axis at Re = %.3f "
                "(w = %.0f rad/s); max Re(-1/N0) = %.3f\n",
                report.crossing_real, report.crossing_omega,
                report.max_real_neg_recip);
    if (!report.intersects) {
      std::printf("  no intersection: queue predicted STABLE\n");
      continue;
    }
    for (const auto& c : report.cycles) {
      std::printf("  predicted limit cycle: amplitude %.1f pkts, "
                  "frequency %.1f Hz (%s)\n",
                  c.amplitude, c.omega / (2.0 * M_PI),
                  c.stable ? "sustained" : "unstable threshold");
    }

    // Confirm with the nonlinear fluid model.
    fluid::FluidParams fp;
    fp.capacity_pps = plant.capacity_pps;
    fp.flows = flows;
    fp.rtt = rtt;
    fp.g = plant.g;
    fp.marking = spec;
    fluid::FluidModel model(fp);
    auto s = fluid::operating_point(fp);
    s.q += 5.0;
    model.set_state(s);
    model.run(2000 * rtt);
    stats::TimeSeries trace;
    model.run(1000 * rtt, &trace, rtt / 10.0);
    std::printf("  fluid model: amplitude %.1f pkts around mean %.1f\n",
                fluid::oscillation_amplitude(trace, 0.0),
                trace.summarize(0).mean());
  }

  const int ndc = analysis::critical_flows(
      plant, queue::MarkingRule::dctcp(40.0), 5, 300);
  const int ndt = analysis::critical_flows(
      plant, queue::MarkingRule::dt_dctcp(30.0, 50.0), 5, 300);
  std::printf("\nCritical flow count at this RTT: DCTCP %d, DT-DCTCP %d "
              "(larger = more stable)\n",
              ndc, ndt);
  return 0;
}
