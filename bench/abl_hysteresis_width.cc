// Ablation: hysteresis width. Sweeps K2 - K1 at fixed midpoint 40
// (width 0 = DCTCP) and reports queue stability in both the packet
// simulator and the DF analysis. This isolates the design choice the
// paper fixes at (30, 50).
#include <cstdio>
#include <vector>

#include "analysis/nyquist.h"
#include "bench/bench_common.h"
#include "bench/sweep_common.h"
#include "runner/runner.h"

using namespace dtdctcp;

namespace {

struct WidthRow {
  core::DumbbellResult sim;
  int crit = 0;
};

WidthRow run_width(std::size_t flows, double width) {
  const double k1 = 40.0 - width / 2.0;
  const double k2 = 40.0 + width / 2.0;

  WidthRow row;
  auto cfg = bench::sweep_config(flows, /*dt=*/width > 0.0);
  cfg.marking = width > 0.0 ? queue::MarkingRule::dt_dctcp(k1, k2)
                            : queue::MarkingRule::dctcp(40.0);
  row.sim = core::run_dumbbell(cfg);

  analysis::PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.rtt = 1e-3;
  p.g = 1.0 / 16.0;
  row.crit = analysis::critical_flows(p, cfg.marking, 5, 400);
  return row;
}

}  // namespace

int main() {
  bench::header("Ablation", "hysteresis width at fixed midpoint 40 pkts");
  const std::size_t flows = 100;  // the paper's most oscillatory point
  std::printf("packet sim: N=%zu, 10 Gbps, RTT 100 us, buffer 100 pkts\n",
              flows);
  std::printf("analysis:   RTT 1 ms (oscillatory regime), critical N\n\n");

  const std::vector<double> widths = {0.0, 4.0, 10.0, 20.0, 30.0, 40.0};
  runner::RunnerTelemetry tm;
  const auto rows = runner::run_jobs(
      widths.size(),
      [&](std::size_t i) { return run_width(flows, widths[i]); },
      bench::runner_options("width"), &tm);
  bench::report_telemetry("width", tm);

  std::printf("%8s %8s %8s | %10s %10s %10s | %10s\n", "width", "K1", "K2",
              "qmean", "qsd", "drops", "critN");
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const double width = widths[i];
    const auto& row = rows[i];
    std::printf("%8.0f %8.0f %8.0f | %10.1f %10.2f %10llu | %10d\n", width,
                40.0 - width / 2.0, 40.0 + width / 2.0, row.sim.queue_mean,
                row.sim.queue_stddev,
                static_cast<unsigned long long>(row.sim.drops), row.crit);
  }

  bench::expectation(
      "Widening the loop raises the DF critical N monotonically (more "
      "phase lead). In the packet simulator a moderate width reduces "
      "queue stddev and drops at N=100 relative to width 0 (DCTCP); very "
      "wide loops trade stability for a larger standing queue.");
  return 0;
}
