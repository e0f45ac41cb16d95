// Poisson workload, flow-size distribution, throughput sampler, and
// stability-margin tests.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/margins.h"
#include "queue/factory.h"
#include "sim/leaf_spine.h"
#include "workload/flow_sampler.h"
#include "workload/poisson_flows.h"

namespace dtdctcp {
namespace {

using workload::FlowSizeDist;

TEST(FlowSizeDist, FixedAlwaysSamplesSame) {
  Rng rng(1);
  const auto d = FlowSizeDist::fixed(42);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(d.sample(rng), 42);
  EXPECT_DOUBLE_EQ(d.mean_segments(), 42.0);
}

TEST(FlowSizeDist, MeanMatchesAtoms) {
  const FlowSizeDist d({{10, 0.5}, {30, 0.5}});
  EXPECT_DOUBLE_EQ(d.mean_segments(), 20.0);
}

TEST(FlowSizeDist, WeightsNormalized) {
  const FlowSizeDist d({{1, 2.0}, {3, 2.0}});  // weights sum to 4
  EXPECT_DOUBLE_EQ(d.mean_segments(), 2.0);
}

TEST(FlowSizeDist, SampleFollowsDistribution) {
  Rng rng(7);
  const FlowSizeDist d({{1, 0.8}, {100, 0.2}});
  int small = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (d.sample(rng) == 1) ++small;
  }
  EXPECT_NEAR(small, 8000, 300);
}

TEST(FlowSizeDist, WebsearchIsHeavyTailed) {
  const auto d = FlowSizeDist::websearch();
  // Mean far above the median atom: tail dominated.
  EXPECT_GT(d.mean_segments(), 50.0);
  EXPECT_LT(d.mean_segments(), 300.0);
}

TEST(ArrivalRate, OffersRequestedLoad) {
  const auto d = FlowSizeDist::fixed(100);  // 100 * 1500 B = 1.2 Mb
  const double lambda =
      workload::arrival_rate_for_load(0.5, units::gbps(1), d, 1500);
  // 0.5 Gbps / 1.2 Mb = ~416 flows/s.
  EXPECT_NEAR(lambda, 0.5e9 / 1.2e6, 1.0);
}

TEST(PoissonGenerator, LowLoadFlowsAllComplete) {
  auto fab = sim::build_leaf_spine(
      {2, 2, 2, units::gbps(1), units::gbps(4), 5e-6, 5e-6},
      queue::ecn_threshold(0, 200, 20.0, queue::ThresholdUnit::kPackets));
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = tcp::CcMode::kDctcp;
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;

  workload::PoissonConfig cfg;
  cfg.sizes = FlowSizeDist::fixed(20);
  cfg.arrivals_per_sec = 500.0;
  cfg.duration = 0.2;
  workload::PoissonFlowGenerator gen(*fab.net, fab.hosts, fab.hosts,
                                     tcp_cfg, cfg);
  gen.start(0.0);
  fab.net->sim().run();
  EXPECT_GT(gen.flows_started(), 50u);
  EXPECT_EQ(gen.flows_completed(), gen.flows_started());
  EXPECT_GT(gen.fct_all().count(), 0u);
}

TEST(PoissonGenerator, ArrivalCountNearExpectation) {
  auto fab = sim::build_leaf_spine(
      {2, 2, 2, units::gbps(10), units::gbps(40), 5e-6, 5e-6},
      queue::drop_tail(0, 0));
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = tcp::CcMode::kDctcp;
  workload::PoissonConfig cfg;
  cfg.sizes = FlowSizeDist::fixed(1);
  cfg.arrivals_per_sec = 2000.0;
  cfg.duration = 0.5;  // expect ~1000 arrivals
  workload::PoissonFlowGenerator gen(*fab.net, fab.hosts, fab.hosts,
                                     tcp_cfg, cfg);
  gen.start(0.0);
  fab.net->sim().run();
  EXPECT_NEAR(static_cast<double>(gen.flows_started()), 1000.0, 150.0);
}

TEST(PoissonGenerator, SmallFlowsFinishFasterThanLarge) {
  auto fab = sim::build_leaf_spine(
      {2, 2, 2, units::gbps(1), units::gbps(4), 5e-6, 5e-6},
      queue::ecn_threshold(0, 200, 20.0, queue::ThresholdUnit::kPackets));
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = tcp::CcMode::kDctcp;
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;
  workload::PoissonConfig cfg;
  cfg.sizes = FlowSizeDist({{5, 0.7}, {1000, 0.3}});
  cfg.arrivals_per_sec = 200.0;
  cfg.duration = 0.3;
  workload::PoissonFlowGenerator gen(*fab.net, fab.hosts, fab.hosts,
                                     tcp_cfg, cfg);
  gen.start(0.0);
  fab.net->sim().run();
  ASSERT_GT(gen.fct_small().count(), 0u);
  ASSERT_GT(gen.fct_large().count(), 0u);
  EXPECT_LT(gen.fct_small().mean(), gen.fct_large().mean());
}

TEST(FlowSampler, MeasuresGoodputAndFairness) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_host("sink");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(sink, sw, units::mbps(100), 25e-6, q,
                  queue::ecn_threshold(0, 100, 20.0,
                                       queue::ThresholdUnit::kPackets));
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  net.attach_host(h1, sw, units::gbps(1), 25e-6, q, q);
  net.attach_host(h2, sw, units::gbps(1), 25e-6, q, q);
  net.build_routes();

  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  tcp::Connection c1(net, h1, sink, cfg, 0);
  tcp::Connection c2(net, h2, sink, cfg, 0);
  c1.start_at(0.0);
  c2.start_at(0.0);

  workload::FlowThroughputSampler sampler(net, 0.01);
  sampler.add(&c1);
  sampler.add(&c2);
  sampler.start(0.0);
  net.sim().run_until(0.5);
  sampler.stop();

  ASSERT_GE(sampler.throughput(0).size(), 40u);
  // Aggregate goodput ~= 100 Mbps across the window (skip slow start).
  const auto s1 = sampler.throughput(0).summarize(0.1);
  const auto s2 = sampler.throughput(1).summarize(0.1);
  EXPECT_NEAR(s1.mean() + s2.mean(), units::mbps(100),
              0.15 * units::mbps(100));
  // Long-run fairness near 1.
  const auto jain = sampler.jain_trace().summarize(0.2);
  EXPECT_GT(jain.mean(), 0.8);
}

TEST(Margins, StableConfigHasGainMarginAboveOne) {
  analysis::PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.flows = 60.0;
  p.rtt = 1e-4;  // paper-literal regime: stable
  p.g = 1.0 / 16.0;
  const auto m = analysis::stability_margins(
      p, queue::MarkingRule::dctcp(40.0));
  EXPECT_GT(m.gain_margin, 1.0);
  EXPECT_GT(m.phase_crossing_w, 0.0);
  EXPECT_NEAR(m.critical_level, M_PI, 1e-6);
}

TEST(Margins, UnstableConfigHasGainMarginBelowOne) {
  analysis::PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.flows = 80.0;
  p.rtt = 1e-3;  // oscillatory regime
  p.g = 1.0 / 16.0;
  const auto m = analysis::stability_margins(
      p, queue::MarkingRule::dctcp(40.0));
  EXPECT_LT(m.gain_margin, 1.0);
  EXPECT_GT(m.phase_margin_deg, -180.0);
}

TEST(Margins, DtHasLargerGainMarginThanDc) {
  analysis::PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.flows = 60.0;
  p.rtt = 1e-3;
  p.g = 1.0 / 16.0;
  const auto mdc = analysis::stability_margins(
      p, queue::MarkingRule::dctcp(40.0));
  const auto mdt = analysis::stability_margins(
      p, queue::MarkingRule::dt_dctcp(30.0, 50.0));
  // The conservative scalar margin still orders the two designs.
  EXPECT_GT(mdt.gain_margin, mdc.gain_margin * 0.99);
}

}  // namespace
}  // namespace dtdctcp
