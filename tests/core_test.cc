// Integration tests for the experiment runners (core public API).
#include <gtest/gtest.h>

#include "core/dtdctcp.h"

namespace dtdctcp {
namespace {

core::DumbbellConfig small_dumbbell(std::size_t flows) {
  core::DumbbellConfig cfg;
  cfg.flows = flows;
  cfg.bottleneck_bps = units::gbps(1);
  cfg.edge_bps = units::gbps(10);
  cfg.rtt = units::microseconds(100);
  cfg.marking = queue::MarkingRule::dctcp(40.0);
  cfg.switch_buffer_packets = 100;
  cfg.warmup = 0.02;
  cfg.measure = 0.08;
  return cfg;
}

TEST(Dumbbell, DctcpHoldsQueueNearThresholdAndSaturatesLink) {
  auto r = core::run_dumbbell(small_dumbbell(5));
  EXPECT_GT(r.utilization, 0.9);
  EXPECT_GT(r.queue_mean, 10.0);
  EXPECT_LT(r.queue_mean, 80.0);
  EXPECT_GT(r.marks, 0u);
}

TEST(Dumbbell, MarkingConfigSelectsDiscipline) {
  auto cfg = small_dumbbell(5);
  cfg.marking = queue::MarkingRule::dt_dctcp(30.0, 50.0);
  auto r = core::run_dumbbell(cfg);
  EXPECT_GT(r.utilization, 0.9);
  EXPECT_GT(r.marks, 0u);
}

TEST(Dumbbell, QueueTraceOnlyWhenRequested) {
  auto cfg = small_dumbbell(3);
  auto r1 = core::run_dumbbell(cfg);
  EXPECT_TRUE(r1.queue_trace.empty());
  cfg.trace_queue = true;
  auto r2 = core::run_dumbbell(cfg);
  EXPECT_FALSE(r2.queue_trace.empty());
}

TEST(Dumbbell, AlphaTrackedForDctcpSenders) {
  auto r = core::run_dumbbell(small_dumbbell(5));
  EXPECT_GT(r.alpha_mean, 0.0);
  EXPECT_LE(r.alpha_mean, 1.0);
  EXPECT_GT(r.alpha_trace.size(), 10u);
}

TEST(Dumbbell, DeterministicForFixedSeed) {
  auto cfg = small_dumbbell(4);
  auto r1 = core::run_dumbbell(cfg);
  auto r2 = core::run_dumbbell(cfg);
  EXPECT_DOUBLE_EQ(r1.queue_mean, r2.queue_mean);
  EXPECT_DOUBLE_EQ(r1.queue_stddev, r2.queue_stddev);
  EXPECT_EQ(r1.marks, r2.marks);
  EXPECT_EQ(r1.events, r2.events);
}

TEST(Dumbbell, SeedChangesStartPhases) {
  auto cfg = small_dumbbell(4);
  cfg.start_spread = 0.001;
  auto r1 = core::run_dumbbell(cfg);
  cfg.seed = 99;
  auto r2 = core::run_dumbbell(cfg);
  EXPECT_NE(r1.events, r2.events);
}

TEST(Dumbbell, MoreFlowsMoreCongestion) {
  auto r_small = core::run_dumbbell(small_dumbbell(2));
  auto r_big = core::run_dumbbell(small_dumbbell(30));
  EXPECT_GT(r_big.alpha_mean, r_small.alpha_mean);
  EXPECT_GT(r_big.queue_mean, r_small.queue_mean * 0.8);
}

// Property sweep: utilization stays high and the queue bounded across
// protocols and flow counts.
struct SweepParam {
  std::size_t flows;
  bool double_threshold;
};

class DumbbellSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DumbbellSweep, UtilizationAndQueueBounds) {
  const auto param = GetParam();
  auto cfg = small_dumbbell(param.flows);
  if (param.double_threshold) {
    cfg.marking = queue::MarkingRule::dt_dctcp(30.0, 50.0);
  }
  auto r = core::run_dumbbell(cfg);
  EXPECT_GT(r.utilization, 0.85) << "flows=" << param.flows;
  EXPECT_LE(r.queue_max, 100.0);  // buffer bound respected
  EXPECT_GE(r.queue_min, 0.0);
  EXPECT_GE(r.queue_stddev, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    FlowsAndMarking, DumbbellSweep,
    ::testing::Values(SweepParam{2, false}, SweepParam{2, true},
                      SweepParam{10, false}, SweepParam{10, true},
                      SweepParam{25, false}, SweepParam{25, true},
                      SweepParam{50, false}, SweepParam{50, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return (info.param.double_threshold ? std::string("DT") : "DC") +
             std::to_string(info.param.flows);
    });

// --- testbed / incast ----------------------------------------------------

TEST(Testbed, TopologyWiresAllWorkersToAggregator) {
  core::TestbedConfig cfg;
  cfg.workers = 9;
  auto tb = core::build_testbed(cfg);
  ASSERT_EQ(tb.workers.size(), 9u);
  ASSERT_NE(tb.aggregator, nullptr);
  // Send one probe packet from each worker to the aggregator.
  class Counter : public sim::PacketSink {
   public:
    void deliver(sim::Packet) override { ++count; }
    int count = 0;
  } counter;
  tb.aggregator->bind_flow(1234, &counter);
  for (auto* w : tb.workers) {
    sim::Packet p;
    p.flow = 1234;
    p.src = w->id();
    p.dst = tb.aggregator->id();
    p.size_bytes = 100;
    w->send(p);
  }
  tb.net->sim().run();
  EXPECT_EQ(counter.count, 9);
}

TEST(Incast, SmallFanInCompletesAtLineRate) {
  core::IncastExperimentConfig cfg;
  cfg.flows = 4;
  cfg.repetitions = 5;
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  auto r = core::run_incast(cfg);
  EXPECT_EQ(r.queries, 5u);
  EXPECT_EQ(r.timeouts, 0u);
  // 4 x 64 KB at ~1 Gbps -> ~2.1 ms; goodput near line rate.
  EXPECT_GT(r.goodput_mean_bps, 0.8 * units::gbps(1));
}

TEST(Incast, LargeFanInCollapsesWithTimeouts) {
  core::IncastExperimentConfig cfg;
  cfg.flows = 48;
  cfg.repetitions = 3;
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.min_rto = 0.2;
  cfg.tcp.init_rto = 0.2;
  auto r = core::run_incast(cfg);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_LT(r.goodput_mean_bps, 0.5 * units::gbps(1));
  EXPECT_GT(r.completion_max_s, 0.19);  // min-RTO dominates
}

TEST(Incast, DtPostponesCollapseAtTheCliff) {
  // At the collapse boundary DT-DCTCP keeps goodput high while DCTCP
  // collapses (paper Fig. 14; boundary location depends on buffer and
  // RTO constants, the ordering is the claim).
  core::IncastExperimentConfig cfg;
  cfg.flows = 36;
  cfg.repetitions = 10;
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.min_rto = 0.2;
  cfg.tcp.init_rto = 0.2;
  cfg.testbed.marking =
      queue::MarkingRule::dctcp(32 * 1024, queue::ThresholdUnit::kBytes);
  auto r_dc = core::run_incast(cfg);
  cfg.testbed.marking = queue::MarkingRule::dt_dctcp(
      28 * 1024, 34 * 1024, queue::ThresholdUnit::kBytes);
  auto r_dt = core::run_incast(cfg);
  EXPECT_GT(r_dt.goodput_mean_bps, r_dc.goodput_mean_bps);
  EXPECT_LT(r_dt.timeouts, r_dc.timeouts);
}

TEST(PartitionAggregate, SplitsTotalBytesAcrossWorkers) {
  core::IncastExperimentConfig cfg;
  cfg.flows = 8;
  cfg.repetitions = 3;
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  auto r = core::run_partition_aggregate(cfg, 1024 * 1024);
  EXPECT_EQ(r.queries, 3u);
  // 1 MB at ~1 Gbps -> ~10 ms total answer time (the paper's Fig. 15
  // floor): allow generous margin for protocol overheads.
  EXPECT_GT(r.completion_mean_s, 0.008);
  EXPECT_LT(r.completion_mean_s, 0.03);
}

// core::MarkingConfig is queue::MarkingRule; these pin its packet view.
TEST(MarkingConfig, FluidSpecConvertsBytesToPackets) {
  auto m = core::MarkingConfig::dt_dctcp(30 * 1500, 50 * 1500,
                                         queue::ThresholdUnit::kBytes);
  auto spec = m.in_packets(1500);
  EXPECT_EQ(spec.kind, queue::MarkingKind::kHysteresis);
  EXPECT_EQ(spec.unit, queue::ThresholdUnit::kPackets);
  EXPECT_EQ(spec.k_start, 30.0);
  EXPECT_EQ(spec.k_stop, 50.0);
  EXPECT_NEAR(m.midpoint(), 40.0 * 1500, 1e-9);
}

TEST(MarkingConfig, PacketUnitPassthrough) {
  auto m = queue::MarkingRule::dctcp(40.0);
  EXPECT_EQ(m.in_packets(1500), m);
}

}  // namespace
}  // namespace dtdctcp
