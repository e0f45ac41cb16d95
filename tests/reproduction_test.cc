// Reproduction pinning: scaled-down versions of the paper's headline
// claims, run as regression tests so a change that silently breaks the
// scientific result fails CI. Full-fidelity versions live in bench/.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/nyquist.h"
#include "check/checker.h"
#include "core/dtdctcp.h"

namespace dtdctcp {
namespace {

// With DTDCTCP_CHECK=1 in the environment (the Debug CI leg), every
// test in this binary runs under the invariant checker; any violation
// aborts with a report. Without it the scope is inert.
class InvariantCheckEnv : public ::testing::Environment {
 public:
  void SetUp() override { scope_ = std::make_unique<check::CheckScope>(); }
  void TearDown() override { scope_.reset(); }

 private:
  std::unique_ptr<check::CheckScope> scope_;
};
[[maybe_unused]] const auto* const kInvariantCheckEnv =
    ::testing::AddGlobalTestEnvironment(new InvariantCheckEnv);

core::DumbbellConfig sweep_cfg(std::size_t flows, bool dt) {
  core::DumbbellConfig cfg;
  cfg.flows = flows;
  cfg.bottleneck_bps = units::gbps(10);
  cfg.edge_bps = units::gbps(10);
  cfg.rtt = units::microseconds(100);
  cfg.marking = dt ? queue::MarkingRule::dt_dctcp(30.0, 50.0)
                   : queue::MarkingRule::dctcp(40.0);
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.switch_buffer_packets = 100;
  cfg.start_spread = units::microseconds(100);
  cfg.warmup = 0.05;
  cfg.measure = 0.15;
  return cfg;
}

TEST(Reproduction, Fig1OscillationGrowsWithFlowCount) {
  // The large-N oscillation includes 200 ms RTO episodes, so the window
  // must span several of them (the figure benches use 0.3-0.4 s).
  auto cfg10 = sweep_cfg(10, false);
  auto cfg100 = sweep_cfg(100, false);
  cfg10.warmup = cfg100.warmup = 0.1;
  cfg10.measure = cfg100.measure = 0.4;
  const auto r10 = core::run_dumbbell(cfg10);
  const auto r100 = core::run_dumbbell(cfg100);
  EXPECT_GT(r100.queue_stddev, 1.5 * r10.queue_stddev);
}

TEST(Reproduction, Fig11DtSuppressesOscillationAtLargeN) {
  auto dc_cfg = sweep_cfg(100, false);
  auto dt_cfg = sweep_cfg(100, true);
  dc_cfg.warmup = dt_cfg.warmup = 0.1;
  dc_cfg.measure = dt_cfg.measure = 0.4;
  const auto dc = core::run_dumbbell(dc_cfg);
  const auto dt = core::run_dumbbell(dt_cfg);
  EXPECT_LT(dt.queue_stddev, dc.queue_stddev);
  EXPECT_GT(dc.utilization, 0.95);
  EXPECT_GT(dt.utilization, 0.95);
}

TEST(Reproduction, Fig9CriticalFlowOrderingInOscillatoryRegime) {
  analysis::PlantParams p;
  p.capacity_pps = units::packets_per_second(units::gbps(10), 1500);
  p.rtt = 1e-3;
  p.g = 1.0 / 16.0;
  const int ndc =
      analysis::critical_flows(p, queue::MarkingRule::dctcp(40.0), 5, 200);
  const int ndt = analysis::critical_flows(
      p, queue::MarkingRule::dt_dctcp(30.0, 50.0), 5, 200);
  ASSERT_GT(ndc, 0);
  ASSERT_GT(ndt, 0);
  EXPECT_LT(ndc, ndt);  // Theorem ordering: DT-DCTCP stable for larger N
}

TEST(Reproduction, Fig9PaperLiteralParametersAreStable) {
  // Documented deviation (EXPERIMENTS.md): at RTT = 100 us the paper's
  // own equations predict stability everywhere; pin that evaluation.
  analysis::PlantParams p;
  p.capacity_pps = units::packets_per_second(units::gbps(10), 1500);
  p.rtt = 1e-4;
  p.g = 1.0 / 16.0;
  p.flows = 60.0;
  EXPECT_FALSE(analysis::analyze(p, queue::MarkingRule::dctcp(40.0))
                   .intersects);
}

TEST(Reproduction, DfFrequencyMatchesFluidOscillationPeriod) {
  // The DF-predicted limit-cycle frequency must match the nonlinear
  // fluid model's actual period to first-harmonic accuracy.
  analysis::PlantParams p;
  p.capacity_pps = units::packets_per_second(units::gbps(10), 1500);
  p.rtt = 1e-3;
  p.g = 1.0 / 16.0;
  p.flows = 80.0;
  const auto report =
      analysis::analyze(p, queue::MarkingRule::dctcp(40.0));
  ASSERT_TRUE(report.intersects);
  double df_freq = 0.0;
  for (const auto& c : report.cycles) {
    if (c.stable) df_freq = c.omega / (2.0 * M_PI);
  }
  ASSERT_GT(df_freq, 0.0);

  fluid::FluidParams fp;
  fp.capacity_pps = p.capacity_pps;
  fp.flows = p.flows;
  fp.rtt = p.rtt;
  fp.g = p.g;
  fp.marking = queue::MarkingRule::dctcp(40.0);
  fluid::FluidModel model(fp);
  auto s = fluid::operating_point(fp);
  s.q += 5.0;
  model.set_state(s);
  model.run(2.0);  // transient
  stats::TimeSeries trace;
  model.run(1.0, &trace, fp.rtt / 10.0);

  const auto osc = stats::estimate_oscillation(trace);
  ASSERT_GT(osc.cycles, 5u);
  EXPECT_NEAR(osc.frequency_hz, df_freq, 0.4 * df_freq);
}

TEST(Reproduction, Fig14DtPostponesIncastCollapse) {
  // At the cliff, DT-DCTCP retains much higher goodput (scaled-down:
  // 10 repetitions at the boundary point found in bench/fig14).
  core::IncastExperimentConfig cfg;
  cfg.flows = 36;
  cfg.repetitions = 10;
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.min_rto = 0.2;
  cfg.tcp.init_rto = 0.2;
  cfg.testbed.marking =
      queue::MarkingRule::dctcp(32 * 1024, queue::ThresholdUnit::kBytes);
  const auto dc = core::run_incast(cfg);
  cfg.testbed.marking = queue::MarkingRule::dt_dctcp(
      28 * 1024, 34 * 1024, queue::ThresholdUnit::kBytes);
  const auto dt = core::run_incast(cfg);
  EXPECT_GT(dt.goodput_mean_bps, dc.goodput_mean_bps);
  EXPECT_LE(dt.timeouts, dc.timeouts);
}

TEST(Reproduction, QueueBuildupShortFlowLatency) {
  // DCTCP's raison d'etre, which DT-DCTCP must preserve: short flows
  // behind elephants see a small queue, not a full buffer.
  const auto dc = core::run_dumbbell(sweep_cfg(2, false));
  EXPECT_LT(dc.queue_mean, 60.0);  // near K, not near the 100-pkt cap
  EXPECT_GT(dc.utilization, 0.95);
}

}  // namespace
}  // namespace dtdctcp
