// Stability-margin table (paper §V-D): critical flow counts and
// predicted limit cycles for DCTCP vs DT-DCTCP across RTTs and
// threshold placements, plus fluid-model cross-validation of the DF
// prediction.
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/nyquist.h"
#include "bench/bench_common.h"
#include "fluid/fluid_model.h"
#include "runner/runner.h"

using namespace dtdctcp;
using analysis::PlantParams;

namespace {

PlantParams plant(double rtt) {
  PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.rtt = rtt;
  p.g = 1.0 / 16.0;
  return p;
}

/// One row of the DF-vs-fluid cross-validation grid.
struct FluidCheck {
  double df_amp = 0.0;
  double fluid_amp = 0.0;
  double fluid_mean = 0.0;
};

FluidCheck run_fluid_check(int n, bool dt) {
  PlantParams p = plant(1e-3);
  p.flows = n;
  const auto spec = dt ? queue::MarkingRule::dt_dctcp(30.0, 50.0)
                       : queue::MarkingRule::dctcp(40.0);
  const auto r = analysis::analyze(p, spec);
  FluidCheck out;
  for (const auto& c : r.cycles) {
    if (c.stable) out.df_amp = c.amplitude;
  }

  fluid::FluidParams fp;
  fp.capacity_pps = p.capacity_pps;
  fp.flows = n;
  fp.rtt = 1e-3;
  fp.g = p.g;
  fp.marking = spec;
  fluid::FluidModel m(fp);
  auto s = fluid::operating_point(fp);
  s.q += 5.0;
  m.set_state(s);
  m.run(bench::scaled(2.0, 0.5));
  stats::TimeSeries trace;
  m.run(bench::scaled(1.0, 0.25), &trace, fp.rtt / 10.0);
  out.fluid_amp = fluid::oscillation_amplitude(trace, 0.0);
  out.fluid_mean = trace.summarize(0).mean();
  return out;
}

}  // namespace

int main() {
  bench::header("Table (§V-D)", "stability margins: critical N and cycles");

  bench::section("critical N vs RTT (C = 10 Gbps, K=40 | K1=30/K2=50)");
  const std::vector<double> rtts = {4e-4, 6e-4, 8e-4, 1e-3,
                                    1.5e-3, 2e-3, 3e-3};
  // One job per (RTT, protocol): even index DCTCP, odd DT-DCTCP.
  const auto crit = runner::run_jobs(
      rtts.size() * 2,
      [&](std::size_t job) {
        const auto spec = job % 2 == 0
                              ? queue::MarkingRule::dctcp(40.0)
                              : queue::MarkingRule::dt_dctcp(30.0, 50.0);
        return analysis::critical_flows(plant(rtts[job / 2]), spec, 5, 400);
      },
      bench::runner_options("critN"));
  std::printf("%10s %12s %12s %10s\n", "RTT", "DC_critN", "DT_critN",
              "DT-DC");
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    const int ndc = crit[2 * i];
    const int ndt = crit[2 * i + 1];
    std::printf("%8.1fms %12d %12d %10d\n", rtts[i] * 1e3, ndc, ndt,
                (ndc > 0 && ndt > 0) ? ndt - ndc : -1);
  }

  bench::section("predicted limit cycles (RTT = 1 ms)");
  std::printf("%5s %10s | %12s %10s | %12s %10s\n", "N", "proto", "X_pkts",
              "f_Hz", "X2_pkts", "f2_Hz");
  for (int n : {60, 80, 100, 150}) {
    for (int dt = 0; dt < 2; ++dt) {
      PlantParams p = plant(1e-3);
      p.flows = n;
      const auto spec = dt ? queue::MarkingRule::dt_dctcp(30.0, 50.0)
                           : queue::MarkingRule::dctcp(40.0);
      const auto r = analysis::analyze(p, spec);
      if (r.cycles.empty()) {
        std::printf("%5d %10s |       stable\n", n, dt ? "DT" : "DC");
        continue;
      }
      std::printf("%5d %10s |", n, dt ? "DT" : "DC");
      for (const auto& c : r.cycles) {
        std::printf(" %12.1f %10.1f |", c.amplitude,
                    c.omega / (2.0 * M_PI));
      }
      std::printf("\n");
    }
  }

  bench::section("DF prediction vs fluid-model simulation (RTT = 1 ms)");
  const std::vector<int> check_flows = {60, 80, 100};
  runner::RunnerTelemetry tm;
  const auto checks = runner::run_jobs(
      check_flows.size() * 2,
      [&](std::size_t job) {
        return run_fluid_check(check_flows[job / 2], /*dt=*/job % 2 == 1);
      },
      bench::runner_options("fluid"), &tm);
  bench::report_telemetry("fluid", tm);
  std::printf("%5s %6s %14s %14s %12s\n", "N", "proto", "DF_amp_pkts",
              "fluid_amp", "fluid_mean");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto& c = checks[i];
    std::printf("%5d %6s %14.1f %14.1f %12.1f\n", check_flows[i / 2],
                i % 2 == 1 ? "DT" : "DC", c.df_amp, c.fluid_amp,
                c.fluid_mean);
  }

  bench::expectation(
      "DT-DCTCP's critical N exceeds DCTCP's at every RTT (the Theorem "
      "ordering; paper's own evaluation reported 60 vs 70). The "
      "first-harmonic DF amplitude is the right order of magnitude "
      "against the full nonlinear fluid model, and DT's fluid amplitude "
      "is smaller than DC's.");
  return 0;
}
