// Hybrid fluid/packet co-simulation tests (src/hybrid).
//
// The two contracts that make the hybrid layer trustworthy:
//  * zero share is a perfect identity — a run with an inert fluid
//    aggregate attached (flows == 0) is byte-identical to a packet-only
//    run, serially (formatted row + full metrics JSON) and sharded
//    (fabric digest);
//  * a non-zero share is deterministic and physically sane — digests
//    are stable run-to-run and across serial/1-shard execution, the
//    foreground FCT at an overlap point tracks the packet-simulated
//    background within a pinned factor, and the invariant checker
//    accepts every coupling sample (and catches a corrupted one).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/checker.h"
#include "fluid/fluid_model.h"
#include "hybrid/fluid_background.h"
#include "parsim/fabric.h"
#include "queue/factory.h"
#include "queue/fifo_base.h"
#include "sim/port.h"
#include "sim/simulator.h"
#include "workload/fct_workloads.h"

namespace dtdctcp {
namespace {

std::string metrics_json(const stats::MetricsRegistry& reg) {
  std::ostringstream out;
  reg.write_json(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// FluidModel hybrid API

TEST(FluidModelHybrid, AdvanceToReachesRequestedTime) {
  fluid::FluidParams p;
  fluid::FluidModel m(p);
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
  m.advance_to(1e-3);
  EXPECT_GE(m.time(), 1e-3);
  EXPECT_LT(m.time(), 1e-3 + 2.0 * m.dt());
  const double t = m.time();
  m.advance_to(0.5e-3);  // in the past: no-op
  EXPECT_DOUBLE_EQ(m.time(), t);
}

TEST(FluidModelHybrid, ExternalArrivalFillsQueueFaster) {
  fluid::FluidParams p;
  p.dynamic_rtt = true;
  fluid::FluidModel closed(p);
  fluid::FluidModel coupled(p);
  closed.reset({1.0, 0.0, 0.0});
  coupled.reset({1.0, 0.0, 0.0});
  // An external arrival stream worth 20% of capacity is pure extra
  // pressure on dq/dt — before the delayed marking loop has had time
  // to push back (10 RTTs), the coupled queue must be visibly deeper.
  coupled.set_external_arrival_pps(0.2 * p.capacity_pps);
  closed.advance_to(1e-3);
  coupled.advance_to(1e-3);
  EXPECT_GT(coupled.state().q, closed.state().q + 5.0);
}

TEST(FluidModelHybrid, QueueOffsetFeedsDelayedMarkingStream) {
  fluid::FluidParams p;
  fluid::FluidModel m(p);
  m.set_queue_offset(37.0);
  m.reset({1.0, 0.0, 0.0});
  // History refilled with q + offset: the marking automaton sees the
  // total queue immediately.
  EXPECT_DOUBLE_EQ(m.delayed_queue(), 37.0);
}

TEST(FluidModelHybrid, ResetRestoresIdleState) {
  fluid::FluidParams p;
  fluid::FluidModel m(p);
  m.run(2e-3);
  m.reset({1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(m.state().w, 1.0);
  EXPECT_DOUBLE_EQ(m.state().alpha, 0.0);
  EXPECT_DOUBLE_EQ(m.state().q, 0.0);
  EXPECT_DOUBLE_EQ(m.delayed_queue(), 0.0);
  EXPECT_DOUBLE_EQ(m.p_delayed(), 0.0);
}

// ---------------------------------------------------------------------------
// FifoBase occupancy coupling

TEST(FifoFluidOccupancy, GaugeAddsToOccupancyAndDrivesMarking) {
  auto disc = queue::ecn_threshold(0, 250, 20.0,
                                   queue::ThresholdUnit::kPackets)();
  auto* fifo = dynamic_cast<queue::FifoBase*>(disc.get());
  ASSERT_NE(fifo, nullptr);
  double gauge = 0.0;
  fifo->set_fluid_occupancy(&gauge, 1500.0);
  auto marked_on_admit = [&] {
    sim::Packet pkt;
    pkt.size_bytes = 1500;
    pkt.ect = true;
    EXPECT_EQ(disc->enqueue(pkt, 0.0), sim::EnqueueResult::kEnqueued);
    sim::Packet out;
    EXPECT_TRUE(disc->dequeue(out, 0.0));
    return out.ce;
  };
  // Gauge at 0: empty queue, below K = 20 — no marking (identity).
  EXPECT_FALSE(marked_on_admit());
  // Fluid share of 30 packets pushes the occupancy over K even though
  // the real queue is empty — the next ECT packet gets CE-marked.
  gauge = 30.0;
  EXPECT_TRUE(marked_on_admit());
  // Detached: occupancy reverts to the real queue only.
  fifo->set_fluid_occupancy(nullptr);
  EXPECT_FALSE(marked_on_admit());
}

// ---------------------------------------------------------------------------
// FluidBackground coupling loop

TEST(FluidBackground, InertAggregatePublishesExactIdentityGauges) {
  sim::Simulator simu;
  sim::Port port(simu, units::gbps(1), 1e-6,
                 queue::ecn_threshold(0, 250, 20.0,
                                      queue::ThresholdUnit::kPackets)());
  hybrid::FluidBackgroundConfig cfg;
  cfg.flows = 0.0;
  cfg.horizon = 2e-3;
  hybrid::FluidBackground bg(cfg, units::gbps(1));
  bg.attach(port);
  simu.run();
  EXPECT_GT(bg.ticks(), 0u);
  // Bit-exact identity values, not just "close to".
  EXPECT_EQ(bg.queue_pkts(), 0.0);
  EXPECT_EQ(bg.available_fraction(), 1.0);
  EXPECT_EQ(bg.model(), nullptr);
  // The horizon stopped the coupling timer: the run drained on its own
  // and the clock halted at the last tick.
  EXPECT_LE(simu.now(), cfg.horizon + 1e-9);
}

TEST(FluidBackground, ActiveAggregateClaimsShareAndStopsAtHorizon) {
  sim::Simulator simu;
  sim::Port port(simu, units::gbps(1), 1e-6,
                 queue::ecn_threshold(0, 250, 20.0,
                                      queue::ThresholdUnit::kPackets)());
  hybrid::FluidBackgroundConfig cfg;
  cfg.flows = 100.0;
  cfg.horizon = 5e-3;
  hybrid::FluidBackground bg(cfg, units::gbps(1));
  bg.attach(port);
  simu.run();
  EXPECT_GT(bg.ticks(), 0u);
  // 100 window-floored flows on a 1 Gbps (8-packet-BDP) link saturate
  // it: the aggregate must claim a large share, capped below 1.
  EXPECT_GT(bg.share(), 0.5);
  EXPECT_LE(bg.share(), cfg.max_share);
  EXPECT_GE(bg.queue_pkts(), 0.0);
  ASSERT_NE(bg.model(), nullptr);
  EXPECT_GT(bg.model()->time(), 0.0);
}

// ---------------------------------------------------------------------------
// Zero-share byte-identity, serial (the correctness anchor)

workload::FctWorkloadConfig identity_config() {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.scheme = workload::FctScheme::kDtLoop;
  cfg.load = 0.6;
  cfg.duration = 0.1;
  cfg.seed = 5;
  return cfg;
}

TEST(HybridIdentity, InertAggregateIsByteIdenticalSerially) {
  const auto base = workload::run_fct_workload(identity_config());
  auto hybrid_cfg = identity_config();
  hybrid_cfg.attach_inert_background = true;
  const auto hybrid = workload::run_fct_workload(hybrid_cfg);
  // The one canonical formatted row (what the benches print)...
  EXPECT_EQ(workload::format_fct_row(identity_config(), base),
            workload::format_fct_row(hybrid_cfg, hybrid));
  // ...and the full observability export, byte for byte: queue-monitor
  // time series summaries, switch counters, FCT histograms.
  EXPECT_EQ(metrics_json(base.metrics), metrics_json(hybrid.metrics));
  EXPECT_EQ(base.flows_completed, hybrid.flows_completed);
  EXPECT_DOUBLE_EQ(base.fct_p99, hybrid.fct_p99);
  EXPECT_DOUBLE_EQ(base.queue_mean_pkts, hybrid.queue_mean_pkts);
}

// ---------------------------------------------------------------------------
// Sharded identity + determinism (parsim fabric)

parsim::FabricConfig fabric_config(parsim::FabricTopology topology,
                                   std::size_t shards) {
  parsim::FabricConfig cfg;
  cfg.topology = topology;
  cfg.fabric.spines = 2;
  cfg.fabric.leaves = 4;
  cfg.fabric.hosts_per_leaf = 4;
  cfg.fat_tree.k = 4;
  cfg.fat_tree.ecmp = sim::EcmpMode::kBalanced;
  cfg.fat_tree.ecmp_seed = 3;
  cfg.shards = shards;
  cfg.segments_per_flow = 60;
  cfg.seed = 3;
  cfg.check = parsim::ShardRunnerOptions::Check::kOff;
  return cfg;
}

/// Every HybridFabric test runs on both Clos shapes.
constexpr parsim::FabricTopology kTopologies[] = {
    parsim::FabricTopology::kLeafSpine, parsim::FabricTopology::kFatTree};

const char* topology_name(parsim::FabricTopology t) {
  return t == parsim::FabricTopology::kFatTree ? "fat-tree" : "leaf-spine";
}

TEST(HybridFabric, ZeroFlowAggregatesKeepShardedDigest) {
  for (const auto topology : kTopologies) {
    SCOPED_TRACE(topology_name(topology));
    auto off = fabric_config(topology, 2);
    const auto base = parsim::run_fabric(off);
    auto inert = fabric_config(topology, 2);
    inert.hybrid_background = true;
    inert.hybrid_flows = 0.0;
    const auto hybrid = parsim::run_fabric(inert);
    EXPECT_EQ(base.digest, hybrid.digest);
    EXPECT_EQ(base.completed, hybrid.completed);
    EXPECT_GT(hybrid.hybrid_ticks, 0u);  // the coupler really ran
    EXPECT_DOUBLE_EQ(hybrid.hybrid_share_mean, 0.0);
  }
}

TEST(HybridFabric, ActiveAggregatesAreDigestDeterministic) {
  for (const auto topology : kTopologies) {
    SCOPED_TRACE(topology_name(topology));
    auto cfg = fabric_config(topology, 2);
    cfg.hybrid_background = true;
    cfg.hybrid_flows = 500.0;
    const auto a = parsim::run_fabric(cfg);
    const auto b = parsim::run_fabric(cfg);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_GT(a.hybrid_ticks, 0u);
    EXPECT_GT(a.hybrid_share_mean, 0.0);
  }
}

TEST(HybridFabric, SerialAndOneShardAgreeWithHybridOn) {
  for (const auto topology : kTopologies) {
    SCOPED_TRACE(topology_name(topology));
    auto serial = fabric_config(topology, 0);
    serial.hybrid_background = true;
    serial.hybrid_flows = 500.0;
    auto one = fabric_config(topology, 1);
    one.hybrid_background = true;
    one.hybrid_flows = 500.0;
    const auto a = parsim::run_fabric(serial);
    const auto b = parsim::run_fabric(one);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.completed, b.completed);
  }
}

// ---------------------------------------------------------------------------
// Fluid-vs-packet FCT agreement at an overlap point

TEST(HybridAgreement, ForegroundP99TracksPacketBackgroundAtOverlap) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.scheme = workload::FctScheme::kDctcp;
  cfg.load = 0.5;
  cfg.duration = 0.1;
  cfg.seed = 11;
  cfg.background_flows = 100;

  auto pkt_cfg = cfg;
  pkt_cfg.background_mode = workload::FctBackgroundMode::kPacket;
  auto fluid_cfg = cfg;
  fluid_cfg.background_mode = workload::FctBackgroundMode::kFluid;
  const auto pkt = workload::run_fct_workload(pkt_cfg);
  const auto fluid = workload::run_fct_workload(fluid_cfg);

  ASSERT_GT(pkt.flows_completed, 0u);
  ASSERT_GT(fluid.flows_completed, 0u);
  ASSERT_GT(pkt.fct_p99, 0.0);
  // Both backgrounds must actually squeeze the foreground: p99 well
  // above the uncontended sub-millisecond completion times.
  EXPECT_GT(pkt.fct_p99, 5e-3);
  EXPECT_GT(fluid.fct_p99, 5e-3);
  // Pinned agreement tolerance: within a factor of 3. The aggregate
  // idealizes 100 window-floored flows as a smooth 95%-capped share —
  // no timeout/retransmission storms, no per-flow burstiness — so the
  // foreground sees the right order of magnitude of contention but not
  // the packet truth's exact tail. The simulation is deterministic, so
  // this pin cannot flake — it moves only if the coupling physics
  // change.
  const double ratio = fluid.fct_p99 / pkt.fct_p99;
  EXPECT_GT(ratio, 1.0 / 3.0) << "fluid p99 " << fluid.fct_p99
                              << " vs packet p99 " << pkt.fct_p99;
  EXPECT_LT(ratio, 3.0) << "fluid p99 " << fluid.fct_p99
                        << " vs packet p99 " << pkt.fct_p99;
  // And the aggregate reports the share it claimed.
  EXPECT_GT(fluid.bg_share_mean, 0.5);
  EXPECT_GT(fluid.bg_ticks, 0u);
}

// ---------------------------------------------------------------------------
// Checker integration

TEST(HybridChecker, AcceptsHealthyCouplingSamples) {
  if (!check::compiled()) {
    GTEST_SKIP() << "invariant hooks not compiled (Release)";
  }
  check::CheckConfig ccfg;
  ccfg.abort_on_violation = false;
  check::CheckScope scope(ccfg);
  ASSERT_TRUE(scope.active());
  {
    sim::Simulator simu;
    sim::Port port(simu, units::gbps(1), 1e-6,
                   queue::ecn_threshold(0, 250, 20.0,
                                        queue::ThresholdUnit::kPackets)());
    hybrid::FluidBackgroundConfig cfg;
    cfg.flows = 200.0;
    cfg.horizon = 2e-3;
    hybrid::FluidBackground bg(cfg, units::gbps(1));
    bg.attach(port);
    simu.run();
    EXPECT_GT(bg.ticks(), 0u);
  }
  EXPECT_EQ(scope.checker()->violation_count(), 0u);
}

TEST(HybridChecker, DetectsInjectedNegativeGauge) {
  if (!check::compiled()) {
    GTEST_SKIP() << "invariant hooks not compiled (Release)";
  }
  check::CheckConfig ccfg;
  ccfg.abort_on_violation = false;
  ccfg.inject = check::Fault::kFluidNegative;
  ccfg.inject_after = 3;  // land mid-run, not on the first tick
  check::CheckScope scope(ccfg);
  ASSERT_TRUE(scope.active());
  {
    sim::Simulator simu;
    sim::Port port(simu, units::gbps(1), 1e-6,
                   queue::ecn_threshold(0, 250, 20.0,
                                        queue::ThresholdUnit::kPackets)());
    hybrid::FluidBackgroundConfig cfg;
    cfg.flows = 200.0;
    cfg.horizon = 2e-3;
    hybrid::FluidBackground bg(cfg, units::gbps(1));
    bg.attach(port);
    simu.run();
  }
  EXPECT_TRUE(scope.checker()->fault_fired());
  ASSERT_GT(scope.checker()->violation_count(), 0u);
  EXPECT_EQ(scope.checker()->violations().front().kind,
            check::ViolationKind::kFluidCoupling);
}

}  // namespace
}  // namespace dtdctcp
