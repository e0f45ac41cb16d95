// Tests for the conservative-parallel executor (src/parsim): simulator
// window stepping, partitioning, mailbox determinism, byte-identity
// pins (one shard == serial; fixed shard count == run-to-run), and the
// cross-shard conservation ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "parsim/fabric.h"
#include "parsim/partition.h"
#include "parsim/shard_runner.h"
#include "parsim/sharded_network.h"
#include "queue/factory.h"
#include "sim/fabric.h"
#include "stats/metrics.h"
#include "tcp/connection.h"
#include "util/units.h"

namespace dtdctcp::parsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Simulator window stepping (satellite: horizon + clamp semantics) ----

TEST(SimWindow, NextEventTimeEmptyIsInfinity) {
  sim::Simulator s;
  EXPECT_EQ(s.next_event_time(), kInf);
  s.at(3.0, [] {});
  s.at(1.5, [] {});
  EXPECT_DOUBLE_EQ(s.next_event_time(), 1.5);
}

TEST(SimWindow, RunWindowExecutesStrictlyBelowEnd) {
  sim::Simulator s;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0}) {
    s.at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  s.run_window(3.0);  // strict <: the event at exactly 3.0 must stay
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.next_event_time(), 3.0);
  // The clock stays at the last executed event, not the window end —
  // past-time clamping remains a shard-local judgement.
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(SimWindow, IdleShardImportIsNotClamped) {
  // An idle shard's clock never moved, so a mailbox import timestamped
  // well ahead must schedule at its true time with no past-clamp.
  sim::Simulator s;
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
  double fired_at = -1.0;
  s.at(5.0, [&] { fired_at = s.now(); });
  s.run_window(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
}

TEST(SimWindow, RunWindowHonoursFutureInsertions) {
  // Events scheduled from inside a window handler still run if they
  // land inside the window, and hold if they land past it.
  sim::Simulator s;
  std::vector<double> fired;
  s.at(1.0, [&] {
    fired.push_back(s.now());
    s.at(1.5, [&] { fired.push_back(s.now()); });
    s.at(7.0, [&] { fired.push_back(s.now()); });
  });
  s.run_window(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_DOUBLE_EQ(s.next_event_time(), 7.0);
}

// ---- Partitioning ---------------------------------------------------------

TEST(Partition, SingleCoversAllNodes) {
  Partition p = Partition::single(5);
  EXPECT_EQ(p.shards, 1u);
  ASSERT_EQ(p.shard_of.size(), 5u);
  for (sim::NodeId i = 0; i < 5; ++i) EXPECT_EQ(p.of(i), 0u);
}

TEST(Partition, LeafSpineKeepsRacksWhole) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 4;
  cfg.hosts_per_leaf = 3;
  sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  const Partition p = clos_partition(fabric, 2);
  EXPECT_EQ(p.shards, 2u);
  // A leaf and every host below it share a shard (the leaf<->host links
  // are never cut, keeping the lookahead at the fabric-link delay).
  for (std::size_t l = 0; l < cfg.leaves; ++l) {
    const std::uint32_t leaf_shard = p.of(fabric.edges[l]->id());
    EXPECT_EQ(leaf_shard, l % 2);
    for (std::size_t h = 0; h < cfg.hosts_per_leaf; ++h) {
      EXPECT_EQ(p.of(fabric.hosts[l * cfg.hosts_per_leaf + h]->id()),
                leaf_shard);
    }
  }
  // Spines round-robin across shards.
  EXPECT_EQ(p.of(fabric.cores[0]->id()), 0u);
  EXPECT_EQ(p.of(fabric.cores[1]->id()), 1u);
}

TEST(Partition, ShardCountClampedToLeaves) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  EXPECT_EQ(clos_partition(fabric, 16).shards, 2u);
}

TEST(ShardedNet, RejectsBadPartitions) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  Partition wrong_size;
  wrong_size.shards = 1;
  wrong_size.shard_of.assign(2, 0);  // fabric has 5 nodes
  EXPECT_THROW(ShardedNetwork(*fabric.net, wrong_size),
               std::invalid_argument);
  Partition out_of_range = Partition::single(fabric.net->nodes().size());
  out_of_range.shard_of[0] = 7;  // >= shards
  EXPECT_THROW(ShardedNetwork(*fabric.net, out_of_range),
               std::invalid_argument);
}

TEST(ShardedNet, RejectsZeroDelayCutLink) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  cfg.fabric_link_delay = 0.0;  // cutting this collapses the lookahead
  sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  EXPECT_THROW(ShardedNetwork(*fabric.net, clos_partition(fabric, 2)),
               std::invalid_argument);
}

TEST(ShardedNet, LookaheadIsMinCutDelayAndSingleShardIsInfinite) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.fabric_link_delay = 4e-6;
  {
    sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
    ShardedNetwork two(*fabric.net, clos_partition(fabric, 2));
    EXPECT_DOUBLE_EQ(two.lookahead(), 4e-6);
    EXPECT_GT(two.cross_links(), 0u);
  }
  {
    sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
    ShardedNetwork one(*fabric.net,
                       Partition::single(fabric.net->nodes().size()));
    EXPECT_EQ(one.lookahead(), kInf);
    EXPECT_EQ(one.cross_links(), 0u);
  }
}

// ---- Stress preset (satellite: config scale-up) ---------------------------

TEST(LeafSpineStress, PresetShapeAndLimits) {
  const sim::LeafSpineConfig cfg = sim::LeafSpineConfig::stress();
  EXPECT_EQ(cfg.total_hosts(), 256u);
  sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  EXPECT_EQ(fabric.hosts.size(), 256u);
  EXPECT_EQ(fabric.edges.size(), 8u);
  EXPECT_EQ(fabric.cores.size(), 4u);

  sim::LeafSpineConfig bad = cfg;
  bad.leaves = 0;
  EXPECT_THROW(sim::build_leaf_spine(bad, queue::drop_tail(0, 100)),
               std::invalid_argument);
  bad.leaves = sim::LeafSpineConfig::kMaxLeaves + 1;
  EXPECT_THROW(sim::build_leaf_spine(bad, queue::drop_tail(0, 100)),
               std::invalid_argument);
}

// ---- Fabric determinism pins ---------------------------------------------

FabricConfig small_fabric(std::size_t shards) {
  FabricConfig fc;
  fc.fabric.spines = 2;
  fc.fabric.leaves = 4;
  fc.fabric.hosts_per_leaf = 4;
  fc.shards = shards;
  fc.segments_per_flow = 60;
  fc.seed = 42;
  return fc;
}

TEST(FabricDeterminism, OneShardByteIdenticalToSerial) {
  const FabricResult serial = run_fabric(small_fabric(0));
  const FabricResult one = run_fabric(small_fabric(1));
  EXPECT_EQ(serial.digest, one.digest);
  EXPECT_EQ(serial.events, one.events);
  EXPECT_EQ(serial.marks, one.marks);
  EXPECT_EQ(serial.drops, one.drops);
  EXPECT_EQ(serial.fabric_packets, one.fabric_packets);
  EXPECT_EQ(serial.completed, serial.flows);
  EXPECT_EQ(one.completed, one.flows);
}

TEST(FabricDeterminism, FixedShardCountIsRunToRunIdentical) {
  const FabricResult a = run_fabric(small_fabric(3));
  const FabricResult b = run_fabric(small_fabric(3));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.marks, b.marks);
  EXPECT_TRUE(a.ledger_ok);
  EXPECT_TRUE(b.ledger_ok);
}

TEST(FabricDeterminism, SimultaneousStartsTieBreakDeterministically) {
  // start_spread = 0: every flow starts at exactly t = 0, maximizing
  // same-timestamp cross-shard arrivals — the mailbox drain rule
  // (time, src shard, seq) must keep the outcome bit-stable.
  FabricConfig fc = small_fabric(2);
  fc.start_spread = 0.0;
  const FabricResult a = run_fabric(fc);
  const FabricResult b = run_fabric(fc);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, a.flows);
}

TEST(FabricDeterminism, MultiShardCompletesWithClosedLedger) {
  FabricConfig fc = small_fabric(4);
  fc.check = ShardRunnerOptions::Check::kForce;
  fc.check_cfg.abort_on_violation = false;
  const FabricResult r = run_fabric(fc);
  EXPECT_EQ(r.completed, r.flows);
  EXPECT_TRUE(r.ledger_ok);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_EQ(r.telemetry.shards, 4u);
  EXPECT_GT(r.telemetry.rounds, 0u);
  ASSERT_EQ(r.telemetry.shard.size(), 4u);
  std::uint64_t shard_events = 0;
  std::uint64_t drained = 0;
  std::uint64_t exported = 0;
  for (const ShardStats& s : r.telemetry.shard) {
    shard_events += s.events;
    drained += s.drained;
    exported += s.exported;
    EXPECT_GT(s.windows, 0u);
  }
  EXPECT_EQ(shard_events, r.events);
  EXPECT_GT(exported, 0u);     // traffic actually crossed shards
  EXPECT_EQ(drained, exported);  // every export was imported
}

// ---- ShardRunner metrics export (satellite: telemetry) --------------------

TEST(ShardRunnerMetrics, ExportsLoadCounters) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  sim::Clos fabric =
      sim::build_leaf_spine(cfg, queue::ecn_threshold(
                                     0, 100, 20.0,
                                     queue::ThresholdUnit::kPackets));
  ShardedNetwork sharded(*fabric.net, clos_partition(fabric, 2));
  ShardRunner runner(sharded);

  std::vector<std::unique_ptr<tcp::Connection>> conns;
  tcp::TcpConfig tcp;
  const std::size_t n = fabric.hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    sim::Host& src = *fabric.hosts[i];
    sim::Host& dst = *fabric.hosts[(i + cfg.hosts_per_leaf) % n];
    conns.push_back(std::make_unique<tcp::Connection>(
        *fabric.net, sharded.sim_for(src.id()), sharded.sim_for(dst.id()),
        src, dst, tcp, 20));
    conns.back()->start_at(0.0);
  }
  runner.run();
  EXPECT_TRUE(runner.finalize());

  stats::MetricsRegistry reg;
  runner.export_metrics(reg);
  EXPECT_EQ(reg.gauge("parsim.shards").value(), 2.0);
  EXPECT_GT(reg.counter("parsim.rounds").value(), 0u);
  EXPECT_GT(reg.counter("parsim.shard0.events").value(), 0u);
  EXPECT_GT(reg.counter("parsim.shard1.events").value(), 0u);
  const std::uint64_t pushed0 =
      reg.counter("parsim.shard0.mailbox_pushed").value();
  const std::uint64_t pushed1 =
      reg.counter("parsim.shard1.mailbox_pushed").value();
  const std::uint64_t drained0 =
      reg.counter("parsim.shard0.mailbox_drained").value();
  const std::uint64_t drained1 =
      reg.counter("parsim.shard1.mailbox_drained").value();
  EXPECT_GT(pushed0 + pushed1, 0u);
  EXPECT_EQ(pushed0 + pushed1, drained0 + drained1);
}

TEST(ShardRunnerMetrics, RunUntilAdvancesEveryShardClockExactly) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  sim::Clos fabric = sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  ShardedNetwork sharded(*fabric.net, clos_partition(fabric, 2));
  ShardRunner runner(sharded);
  runner.run_until(0.25);
  EXPECT_DOUBLE_EQ(sharded.shard_sim(0).now(), 0.25);
  EXPECT_DOUBLE_EQ(sharded.shard_sim(1).now(), 0.25);
  // Idle shards must reach the target by clock assignment, not clamped
  // event replay.
  EXPECT_EQ(sharded.shard_sim(0).past_schedule_clamps(), 0u);
  EXPECT_EQ(sharded.shard_sim(1).past_schedule_clamps(), 0u);
}

}  // namespace
}  // namespace dtdctcp::parsim
