// Ablation: the DCTCP estimation gain g. The paper fixes g = 1/16; this
// sweep shows how g shifts both the measured oscillation (packet sim)
// and the predicted stability margin (DF analysis) for DCTCP and
// DT-DCTCP.
#include <cstdio>
#include <vector>

#include "analysis/nyquist.h"
#include "bench/bench_common.h"
#include "bench/sweep_common.h"
#include "runner/runner.h"

using namespace dtdctcp;

namespace {

struct GainRow {
  core::DumbbellResult dc, dt;
  int crit_dc = 0, crit_dt = 0;
};

GainRow run_gain(double g) {
  GainRow row;
  auto dc_cfg = bench::sweep_config(60, false);
  dc_cfg.tcp.dctcp_g = g;
  row.dc = core::run_dumbbell(dc_cfg);

  auto dt_cfg = bench::sweep_config(60, true);
  dt_cfg.tcp.dctcp_g = g;
  row.dt = core::run_dumbbell(dt_cfg);

  analysis::PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.rtt = 1e-3;
  p.g = g;
  row.crit_dc =
      analysis::critical_flows(p, queue::MarkingRule::dctcp(40.0), 5, 400);
  row.crit_dt = analysis::critical_flows(
      p, queue::MarkingRule::dt_dctcp(30.0, 50.0), 5, 400);
  return row;
}

}  // namespace

int main() {
  bench::header("Ablation", "estimation gain g (paper fixes g = 1/16)");
  std::printf("packet sim: N = 60, 10 Gbps, RTT 100 us, buffer 100 pkts\n");
  std::printf("analysis:   RTT 1 ms, critical N per Theorems 1-2\n\n");

  const std::vector<double> gains = {1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0,
                                     1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0};
  runner::RunnerTelemetry tm;
  const auto rows = runner::run_jobs(
      gains.size(), [&](std::size_t i) { return run_gain(gains[i]); },
      bench::runner_options("g"), &tm);
  bench::report_telemetry("g", tm);

  std::printf("%8s | %8s %8s %8s %8s | %9s %9s\n", "g", "DC_qsd",
              "DC_alpha", "DT_qsd", "DT_alpha", "DC_critN", "DT_critN");
  for (std::size_t i = 0; i < gains.size(); ++i) {
    const auto& row = rows[i];
    std::printf("%8.4f | %8.2f %8.3f %8.2f %8.3f | %9d %9d\n", gains[i],
                row.dc.queue_stddev, row.dc.alpha_mean, row.dt.queue_stddev,
                row.dt.alpha_mean, row.crit_dc, row.crit_dt);
  }

  bench::expectation(
      "Larger g makes alpha track marks faster (quicker but twitchier "
      "control): the DF critical N shifts with g while DT-DCTCP's "
      "critical N stays above DCTCP's at every gain; the packet-level "
      "queue stddev responds in kind.");
  return 0;
}
