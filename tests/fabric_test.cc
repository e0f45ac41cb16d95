// Clos fabric conformance suite: fat-tree shape and link numbering,
// seeded ECMP (balanced vs forced-polarized), mid-run link failures
// with conservation auditing on fat-tree and leaf-spine, stale-route
// clearing, pod-whole sharding determinism, shared-buffer isolation
// on an oversubscribed fabric, and the single-switch star builder.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "parsim/fabric.h"
#include "parsim/partition.h"
#include "queue/factory.h"
#include "sim/fabric.h"
#include "sim/shared_buffer.h"
#include "sim/star.h"
#include "tcp/connection.h"
#include "util/units.h"

namespace dtdctcp {
namespace {

sim::FatTreeConfig k4_config() {
  sim::FatTreeConfig cfg;
  cfg.k = 4;
  return cfg;
}

class ProbeSink : public sim::PacketSink {
 public:
  void deliver(sim::Packet) override { ++count; }
  int count = 0;
};

/// Agg-core egress port indices of `agg`, in link order.
std::vector<std::size_t> core_uplinks(const sim::FatTree& ft,
                                      const sim::Switch* agg) {
  std::vector<std::size_t> ports;
  for (const auto& l : ft.links) {
    if (l.tier == sim::FabricLink::Tier::kAggCore && l.a == agg) {
      ports.push_back(l.a_port);
    }
  }
  return ports;
}

/// Links are numbered pod by pod: edge i's uplink to agg j at i*r + j,
/// then agg i's uplink to core i*r + j at r*r + i*r + j. Uplinks are an
/// edge's first ports; an agg's edge-facing ports precede its core
/// uplinks; core port p faces pod p.
void expect_per_pod_link_order(const sim::FatTree& ft) {
  const std::size_t r = ft.cfg.aggs_per_pod;
  ASSERT_EQ(ft.links.size(), ft.cfg.pods * 2 * r * r);
  for (std::size_t p = 0; p < ft.cfg.pods; ++p) {
    const sim::FabricLink* pod = &ft.links[p * 2 * r * r];
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < r; ++j) {
        const sim::FabricLink& up = pod[i * r + j];
        EXPECT_EQ(up.tier, sim::FabricLink::Tier::kEdgeAgg);
        EXPECT_EQ(up.a, ft.edges[p * r + i]);
        EXPECT_EQ(up.a_port, j);
        EXPECT_EQ(up.b, ft.aggs[p * r + j]);
        EXPECT_EQ(up.b_port, i);
        const sim::FabricLink& core = pod[r * r + i * r + j];
        EXPECT_EQ(core.tier, sim::FabricLink::Tier::kAggCore);
        EXPECT_EQ(core.a, ft.aggs[p * r + i]);
        EXPECT_EQ(core.a_port, r + j);
        EXPECT_EQ(core.b, ft.cores[i * r + j]);
        EXPECT_EQ(core.b_port, p);
      }
    }
  }
}

TEST(FatTree, BuildsCanonicalShapeK4) {
  auto ft = sim::build_fat_tree(k4_config(), queue::drop_tail(0, 0));
  EXPECT_EQ(ft.cores.size(), 4u);
  EXPECT_EQ(ft.aggs.size(), 8u);
  EXPECT_EQ(ft.edges.size(), 8u);
  EXPECT_EQ(ft.hosts.size(), 16u);
  EXPECT_EQ(ft.links.size(), 32u);
  EXPECT_EQ(ft.link_down.size(), ft.links.size());
  // Radix check: every switch is a k-port device in the canonical
  // fat-tree (core: one port per pod; agg/edge: k/2 down + k/2 up).
  for (auto* sw : ft.cores) EXPECT_EQ(sw->port_count(), 4u);
  for (auto* sw : ft.aggs) EXPECT_EQ(sw->port_count(), 4u);
  for (auto* sw : ft.edges) EXPECT_EQ(sw->port_count(), 4u);
  // Half the fabric links are intra-pod, half are core uplinks.
  std::size_t edge_agg = 0, agg_core = 0;
  for (const auto& l : ft.links) {
    (l.tier == sim::FabricLink::Tier::kEdgeAgg ? edge_agg : agg_core) += 1;
  }
  EXPECT_EQ(edge_agg, 16u);
  EXPECT_EQ(agg_core, 16u);
  expect_per_pod_link_order(ft);
}

TEST(FatTree, BuildsCanonicalShapeK8) {
  sim::FatTreeConfig cfg;
  cfg.k = 8;
  auto ft = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  EXPECT_EQ(ft.cores.size(), 16u);
  EXPECT_EQ(ft.aggs.size(), 32u);
  EXPECT_EQ(ft.edges.size(), 32u);
  EXPECT_EQ(ft.hosts.size(), 128u);
  EXPECT_EQ(ft.links.size(), 256u);
  for (auto* sw : ft.cores) EXPECT_EQ(sw->port_count(), 8u);
  for (auto* sw : ft.aggs) EXPECT_EQ(sw->port_count(), 8u);
  for (auto* sw : ft.edges) EXPECT_EQ(sw->port_count(), 8u);
  expect_per_pod_link_order(ft);
}

TEST(FatTree, RejectsBadDimensions) {
  sim::FatTreeConfig odd;
  odd.k = 3;
  EXPECT_THROW(sim::build_fat_tree(odd, queue::drop_tail(0, 0)),
               std::invalid_argument);
  sim::FatTreeConfig huge;
  huge.k = 18;
  EXPECT_THROW(sim::build_fat_tree(huge, queue::drop_tail(0, 0)),
               std::invalid_argument);
}

TEST(FatTree, AllPairsReachableAndRebuildIsStable) {
  auto ft = sim::build_fat_tree(k4_config(), queue::drop_tail(0, 0));
  // A redundant rebuild with an empty down set must leave a fully
  // routed fabric (regression: the rebuild path installs groups for
  // every destination, it must not clear reachable ones).
  ft.rebuild_routes(ft.link_down, nullptr);

  std::vector<std::unique_ptr<ProbeSink>> sinks;
  int expected = 0;
  sim::FlowId flow = 1000;
  for (auto* src : ft.hosts) {
    for (auto* dst : ft.hosts) {
      if (src == dst) continue;
      sinks.push_back(std::make_unique<ProbeSink>());
      dst->bind_flow(flow, sinks.back().get());
      sim::Packet p;
      p.flow = flow++;
      p.src = src->id();
      p.dst = dst->id();
      p.size_bytes = 100;
      src->send(p);
      ++expected;
    }
  }
  ft.net->sim().run();
  int delivered = 0;
  for (const auto& s : sinks) delivered += s->count;
  EXPECT_EQ(delivered, expected);
  for (auto* sw : ft.edges) EXPECT_EQ(sw->unrouted_drops(), 0u);
  for (auto* sw : ft.aggs) EXPECT_EQ(sw->unrouted_drops(), 0u);
  for (auto* sw : ft.cores) EXPECT_EQ(sw->unrouted_drops(), 0u);
}

TEST(FatTree, EcmpSaltsAreSeedDeterministic) {
  sim::FatTreeConfig cfg = k4_config();
  cfg.ecmp = sim::EcmpMode::kBalanced;
  cfg.ecmp_seed = 42;
  auto a = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  auto b = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  for (std::size_t i = 0; i < a.aggs.size(); ++i) {
    EXPECT_EQ(a.aggs[i]->ecmp_salt(), b.aggs[i]->ecmp_salt());
    EXPECT_NE(a.aggs[i]->ecmp_salt(), 0u);
  }
  // A different seed re-salts the fabric.
  cfg.ecmp_seed = 43;
  auto c = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  bool any_differ = false;
  for (std::size_t i = 0; i < a.aggs.size(); ++i) {
    any_differ = any_differ || a.aggs[i]->ecmp_salt() != c.aggs[i]->ecmp_salt();
  }
  EXPECT_TRUE(any_differ);
  // Legacy mode keeps the historical unsalted hash on every switch.
  cfg.ecmp = sim::EcmpMode::kLegacy;
  auto d = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  for (auto* sw : d.aggs) EXPECT_EQ(sw->ecmp_salt(), 0u);
}

/// Sends `flows` one-packet probes from pod-0 hosts to pod-1 hosts and
/// returns how many distinct agg-core egress ports (across the pod-0
/// aggs) carried traffic, plus the per-agg used-uplink counts.
std::pair<int, std::vector<int>> probe_uplink_spread(sim::FatTree& ft,
                                                     int flows) {
  std::vector<std::unique_ptr<ProbeSink>> sinks;
  const std::size_t pod_hosts = ft.cfg.hosts_per_pod();
  for (int i = 0; i < flows; ++i) {
    auto* src = ft.hosts[static_cast<std::size_t>(i) % pod_hosts];
    auto* dst = ft.hosts[pod_hosts + static_cast<std::size_t>(i) % pod_hosts];
    sinks.push_back(std::make_unique<ProbeSink>());
    dst->bind_flow(static_cast<sim::FlowId>(5000 + i), sinks.back().get());
    sim::Packet p;
    p.flow = static_cast<sim::FlowId>(5000 + i);
    p.src = src->id();
    p.dst = dst->id();
    p.size_bytes = 100;
    src->send(p);
  }
  ft.net->sim().run();
  int total_used = 0;
  std::vector<int> per_agg;
  for (std::size_t j = 0; j < ft.cfg.aggs_per_pod; ++j) {
    auto* agg = ft.aggs[j];  // pod 0
    int used = 0;
    for (std::size_t port : core_uplinks(ft, agg)) {
      if (agg->port(port).packets_sent() > 0) ++used;
    }
    total_used += used;
    per_agg.push_back(used);
  }
  return {total_used, per_agg};
}

TEST(FatTree, BalancedEcmpSpreadsAcrossAllUplinks) {
  sim::FatTreeConfig cfg = k4_config();
  cfg.ecmp = sim::EcmpMode::kBalanced;
  cfg.ecmp_seed = 7;
  auto ft = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  const auto [total_used, per_agg] = probe_uplink_spread(ft, 128);
  // 4 equal-cost (agg, core) paths out of pod 0; independent per-tier
  // salts must light up all of them.
  EXPECT_EQ(total_used, 4) << "balanced ECMP left equal-cost paths idle";
  for (int used : per_agg) EXPECT_EQ(used, 2);
}

TEST(FatTree, PolarizedEcmpCollapsesEachAggToOneUplink) {
  // Forced hash polarization: every switch shares one salt, so each agg
  // repeats the edge's decision and funnels all its flows onto exactly
  // one core uplink — the classic multi-tier ECMP failure mode, pinned
  // here as a reproducible regression.
  sim::FatTreeConfig cfg = k4_config();
  cfg.ecmp = sim::EcmpMode::kPolarized;
  cfg.ecmp_seed = 7;
  auto ft = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  const auto [total_used, per_agg] = probe_uplink_spread(ft, 128);
  for (std::size_t j = 0; j < per_agg.size(); ++j) {
    // An agg that saw traffic must have used exactly ONE of its two
    // equal-cost uplinks.
    auto* agg = ft.aggs[j];
    std::uint64_t agg_traffic = 0;
    for (std::size_t port : core_uplinks(ft, agg)) {
      agg_traffic += agg->port(port).packets_sent();
    }
    if (agg_traffic > 0) {
      EXPECT_EQ(per_agg[j], 1);
    }
  }
  EXPECT_LE(total_used, 2);
}

TEST(FatTree, LinkFailureReroutesAndConservationHolds) {
  const auto marking =
      queue::ecn_threshold(0, 250, 20.0, queue::ThresholdUnit::kPackets);
  struct Case {
    const char* name;
    std::function<sim::Clos()> build;
    std::vector<std::size_t> fail;  ///< links failed together mid-transfer
    SimTime fail_at;
  };
  const Case cases[] = {
      {"fat-tree",
       [&] {
         sim::FatTreeConfig cfg = k4_config();
         cfg.ecmp = sim::EcmpMode::kBalanced;
         cfg.ecmp_seed = 3;
         // Slow core tier so agg uplink queues hold a real backlog when
         // the link dies (the drained packets are what the ledger must
         // absorb).
         cfg.agg_core_bps = units::gbps(1);
         return sim::build_fat_tree(cfg, marking);
       },
       // Links 4 and 5 (after pod 0's four edge-agg links): BOTH of
       // agg0's core uplinks. Every pod-0 cross-pod flow must reroute
       // through agg1 while the backlog queued on the dead links is
       // drained into the drop ledger.
       {4, 5},
       // 800us is the slow-start overshoot peak on this fabric: the
       // uplink queues hold tens of packets, so the drain really has
       // something to account.
       800e-6},
      {"leaf-spine",
       [&] {
         return sim::build_leaf_spine(sim::LeafSpineConfig::stress(),
                                      marking);
       },
       // Leaf 0's uplinks to spines 0 and 1: its flows must reroute
       // through spines 2 and 3. At 100us the first windows of 32 hosts
       // still queue on the 2:1 oversubscribed leaf uplinks.
       {0, 1},
       100e-6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    check::CheckConfig cc;
    cc.abort_on_violation = false;
    check::CheckScope scope(cc);
    std::uint64_t down_drops = 0;
    {
      sim::Clos fab = c.build();
      tcp::TcpConfig tcp;
      tcp.mode = tcp::CcMode::kDctcp;
      tcp.min_rto = 0.01;
      tcp.init_rto = 0.01;
      std::vector<std::unique_ptr<tcp::Connection>> conns;
      const std::size_t n = fab.hosts.size();
      const std::size_t pod_hosts = fab.cfg.hosts_per_pod();
      for (std::size_t i = 0; i < n; ++i) {
        conns.push_back(std::make_unique<tcp::Connection>(
            *fab.net, *fab.hosts[i], *fab.hosts[(i + pod_hosts) % n], tcp,
            300));
        conns.back()->start_at(0.0);
      }
      sim::Clos* fp = &fab;
      for (const std::size_t idx : c.fail) {
        fab.net->sim().at(c.fail_at, [fp, idx, t = c.fail_at] {
          fp->set_link_state(idx, false, t);
        });
      }
      fab.net->sim().run();
      EXPECT_TRUE(fab.net->sim().empty());
      for (const auto& conn : conns) {
        EXPECT_TRUE(conn->sender().completed())
            << "flow " << conn->flow() << " stuck after reroute";
      }
      for (const auto* tier : {&fab.edges, &fab.aggs, &fab.cores}) {
        for (sim::Switch* sw : *tier) {
          for (std::size_t p = 0; p < sw->port_count(); ++p) {
            down_drops += sw->port(p).link_down_drops();
          }
        }
      }
      if (scope.checker() != nullptr) scope.checker()->finalize();
    }  // fabric torn down with the checker installed
    if (check::compiled() && scope.checker() != nullptr) {
      EXPECT_EQ(scope.checker()->violation_count(), 0u);
      const auto totals = scope.checker()->totals();
      EXPECT_EQ(totals.injected, totals.delivered + totals.dropped +
                                     totals.retired + totals.exported);
      // The failed links held a backlog; those packets must be accounted
      // as drops, not leaked.
      EXPECT_GT(down_drops, 0u);
      EXPECT_GE(totals.dropped, down_drops);
    }
  }
}

TEST(FatTree, FailureAndRecoveryRestoresAllPaths) {
  auto ft = sim::build_fat_tree(k4_config(), queue::drop_tail(0, 0));
  // Down, then up again: the fabric must return to the exact pre-failure
  // routing (all four pod-0 uplinks usable).
  std::size_t agg_core_idx = 0;
  for (std::size_t i = 0; i < ft.links.size(); ++i) {
    if (ft.links[i].tier == sim::FabricLink::Tier::kAggCore) {
      agg_core_idx = i;
      break;
    }
  }
  ft.set_link_state(agg_core_idx, false, 0.0);
  EXPECT_EQ(ft.link_down[agg_core_idx], 1);
  ft.set_link_state(agg_core_idx, true, 0.0);
  EXPECT_EQ(ft.link_down[agg_core_idx], 0);

  std::vector<std::unique_ptr<ProbeSink>> sinks;
  int expected = 0;
  sim::FlowId flow = 9000;
  for (auto* src : ft.hosts) {
    for (auto* dst : ft.hosts) {
      if (src == dst) continue;
      sinks.push_back(std::make_unique<ProbeSink>());
      dst->bind_flow(flow, sinks.back().get());
      sim::Packet p;
      p.flow = flow++;
      p.src = src->id();
      p.dst = dst->id();
      p.size_bytes = 100;
      src->send(p);
      ++expected;
    }
  }
  ft.net->sim().run();
  int delivered = 0;
  for (const auto& s : sinks) delivered += s->count;
  EXPECT_EQ(delivered, expected);
}

TEST(FatTree, UnreachablePodClearsRoutesInsteadOfStaleForwarding) {
  // Regression for the single-shot route builder, which skipped
  // unreachable destinations and would have left stale pre-failure
  // entries in place: cutting every pod-0 core uplink must CLEAR the
  // cross-pod routes, so traffic dies at the counted unrouted guard.
  auto ft = sim::build_fat_tree(k4_config(), queue::drop_tail(0, 0));
  for (std::size_t i = 0; i < ft.links.size(); ++i) {
    const auto& l = ft.links[i];
    if (l.tier == sim::FabricLink::Tier::kAggCore &&
        (l.a == ft.aggs[0] || l.a == ft.aggs[1])) {
      ft.set_link_state(i, false, 0.0);
    }
  }
  ProbeSink sink;
  auto* src = ft.hosts[0];                              // pod 0
  auto* dst = ft.hosts[ft.cfg.hosts_per_pod()];         // pod 1
  dst->bind_flow(777, &sink);
  sim::Packet p;
  p.flow = 777;
  p.src = src->id();
  p.dst = dst->id();
  p.size_bytes = 100;
  src->send(p);
  // Intra-pod traffic must still work (pod 0 is internally intact).
  ProbeSink local_sink;
  auto* local = ft.hosts[1];
  local->bind_flow(778, &local_sink);
  sim::Packet q;
  q.flow = 778;
  q.src = src->id();
  q.dst = local->id();
  q.size_bytes = 100;
  src->send(q);
  ft.net->sim().run();
  EXPECT_EQ(sink.count, 0);
  EXPECT_EQ(local_sink.count, 1);
  std::uint64_t unrouted = 0;
  for (auto* sw : ft.edges) unrouted += sw->unrouted_drops();
  for (auto* sw : ft.aggs) unrouted += sw->unrouted_drops();
  EXPECT_GT(unrouted, 0u);
}

TEST(FatTree, PodWholePartitionCutsOnlyCoreUplinks) {
  auto ft = sim::build_fat_tree(k4_config(), queue::drop_tail(0, 0));
  const auto part = parsim::fat_tree_partition(ft, 2);
  EXPECT_EQ(part.shards, 2u);
  const std::size_t r = ft.cfg.aggs_per_pod;
  for (std::size_t pod = 0; pod < ft.cfg.pods; ++pod) {
    const std::uint32_t shard = part.of(ft.edges[pod * r]->id());
    EXPECT_EQ(shard, pod % 2);
    for (std::size_t i = 0; i < r; ++i) {
      EXPECT_EQ(part.of(ft.edges[pod * r + i]->id()), shard);
      EXPECT_EQ(part.of(ft.aggs[pod * r + i]->id()), shard);
    }
    for (std::size_t h = 0; h < ft.cfg.hosts_per_pod(); ++h) {
      EXPECT_EQ(part.of(ft.hosts[pod * ft.cfg.hosts_per_pod() + h]->id()),
                shard);
    }
  }
  // Intra-pod links are never cut; only agg-core links may cross.
  for (const auto& l : ft.links) {
    if (l.tier == sim::FabricLink::Tier::kEdgeAgg) {
      EXPECT_EQ(part.of(l.a->id()), part.of(l.b->id()));
    }
  }
}

parsim::FabricConfig fat_fabric_config(std::size_t shards) {
  parsim::FabricConfig fc;
  fc.topology = parsim::FabricTopology::kFatTree;
  fc.fat_tree.k = 4;
  fc.fat_tree.ecmp = sim::EcmpMode::kBalanced;
  fc.fat_tree.ecmp_seed = 11;
  fc.shards = shards;
  fc.segments_per_flow = 120;
  fc.seed = 21;
  fc.check = parsim::ShardRunnerOptions::Check::kOff;
  return fc;
}

parsim::FabricConfig stress_leaf_spine_config(std::size_t shards) {
  parsim::FabricConfig fc;
  fc.fabric = sim::LeafSpineConfig::stress();
  fc.shards = shards;
  fc.segments_per_flow = 60;
  fc.seed = 21;
  fc.check = parsim::ShardRunnerOptions::Check::kOff;
  return fc;
}

TEST(FatTreeSharded, SerialMatchesSingleShardByteForByte) {
  const auto serial = parsim::run_fabric(fat_fabric_config(0));
  const auto one_shard = parsim::run_fabric(fat_fabric_config(1));
  EXPECT_EQ(serial.flows, serial.completed);
  EXPECT_EQ(serial.digest, one_shard.digest);
  EXPECT_EQ(serial.completed, one_shard.completed);
}

TEST(FatTreeSharded, TwoShardsAreRunToRunDeterministic) {
  const auto a = parsim::run_fabric(fat_fabric_config(2));
  const auto b = parsim::run_fabric(fat_fabric_config(2));
  EXPECT_TRUE(a.ledger_ok);
  EXPECT_EQ(a.completed, a.flows);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(FatTreeSharded, LinkFailureIsDeterministicSerialAndSharded) {
  struct Case {
    const char* name;
    parsim::FabricConfig (*config)(std::size_t shards);
    std::size_t link;
    SimTime down;
    SimTime up;
  };
  const Case cases[] = {
      // 16 = pod 2's first edge-agg link; down while the permutation is
      // in full flight, back up before the retransmission tail so
      // recovery is exercised too.
      {"fat-tree", fat_fabric_config, 16, 230e-6, 1200e-6},
      // 3 = leaf 0's uplink to spine 3.
      {"leaf-spine", stress_leaf_spine_config, 3, 100e-6, 900e-6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto make = [&c](std::size_t shards) {
      auto fc = c.config(shards);
      fc.link_events.push_back({c.down, c.link, false});
      fc.link_events.push_back({c.up, c.link, true});
      return fc;
    };
    const auto serial = parsim::run_fabric(make(0));
    const auto serial2 = parsim::run_fabric(make(0));
    EXPECT_EQ(serial.digest, serial2.digest);
    EXPECT_EQ(serial.completed, serial.flows);

    const auto one = parsim::run_fabric(make(1));
    EXPECT_EQ(serial.digest, one.digest);

    const auto two_a = parsim::run_fabric(make(2));
    const auto two_b = parsim::run_fabric(make(2));
    EXPECT_TRUE(two_a.ledger_ok);
    EXPECT_EQ(two_a.digest, two_b.digest);
    EXPECT_EQ(two_a.completed, two_a.flows);

    // The failure must actually bite somewhere (digest differs from the
    // no-failure run of the same seed).
    const auto clean = parsim::run_fabric(c.config(0));
    EXPECT_NE(serial.digest, clean.digest);
  }
}

TEST(FatTreeSharded, PriorityClassesRunDeterministically) {
  auto fc = fat_fabric_config(2);
  fc.priority_classes = 2;
  fc.sched_policy = queue::SchedPolicy::kStrictPriority;
  const auto a = parsim::run_fabric(fc);
  const auto b = parsim::run_fabric(fc);
  EXPECT_TRUE(a.ledger_ok);
  EXPECT_EQ(a.completed, a.flows);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(SharedPool, DynamicThresholdShieldsVictimPortUnderFabricIncast) {
  // Oversubscribed 2-tier fabric: senders behind leaf0, a 40G fabric
  // hop, and two contended 1G edge ports on leaf1 (incast target +
  // victim) sharing one switch buffer pool. The incast is open-loop at
  // 4x the target port's drain rate, so without a dynamic threshold the
  // pool is pinned at capacity for the whole overload window. With DT +
  // headroom the incast port's occupancy is capped and the victim port
  // keeps admitting; with a naive full-sharing pool (alpha 0, no
  // headroom) the victim takes drops it did not cause.
  struct Outcome {
    std::uint64_t victim_drops = 0;
    std::uint64_t incast_drops = 0;
    std::uint64_t pool_peak = 0;
    bool victim_completed = false;
  };
  constexpr std::size_t kMtu = 1500;
  const auto run = [&](double alpha, std::size_t headroom_pkts) {
    Outcome out;
    sim::SharedBufferPool pool(80 * kMtu);
    sim::PortShare share;
    share.alpha = alpha;
    share.headroom_bytes = headroom_pkts * kMtu;

    sim::Network net;
    auto& leaf0 = net.add_switch("leaf0");
    auto& leaf1 = net.add_switch("leaf1");
    const auto plain = queue::drop_tail(0, 0);
    net.connect_switches(leaf0, leaf1, units::gbps(40), 5e-6, plain, plain);
    const auto pooled_edge = queue::pooled(queue::drop_tail(0, 0), pool, share);

    auto& target = net.add_host("target");
    const std::size_t target_port =
        net.attach_host(target, leaf1, units::gbps(1), 2e-6, plain,
                        pooled_edge);
    auto& victim_dst = net.add_host("victim_dst");
    const std::size_t victim_port =
        net.attach_host(victim_dst, leaf1, units::gbps(1), 2e-6, plain,
                        pooled_edge);

    std::vector<sim::Host*> senders;
    for (int i = 0; i < 4; ++i) {
      auto& h = net.add_host(sim::numbered("s", i));
      net.attach_host(h, leaf0, units::gbps(10), 2e-6, plain, plain);
      senders.push_back(&h);
    }
    net.build_routes();

    // Open-loop incast: 3 senders each emit one MTU packet every 9 us
    // (aggregate ~4 Gbps) into the 1G target port for 1.5 ms — far past
    // the victim's transfer window, keeping the backlog saturated.
    ProbeSink soak;
    for (int s = 0; s < 3; ++s) {
      target.bind_flow(static_cast<sim::FlowId>(100 + s), &soak);
      for (int n = 0; n < 167; ++n) {
        const SimTime t = 9e-6 * n + 3e-6 * s;
        sim::Host* src = senders[static_cast<std::size_t>(s)];
        sim::Packet p;
        p.flow = static_cast<sim::FlowId>(100 + s);
        p.src = src->id();
        p.dst = target.id();
        p.size_bytes = kMtu;
        net.sim().at(t, [src, p]() mutable { src->send(p); });
      }
    }
    // The victim flow is deliberately small: its own slow-start burst
    // must fit the victim port's DT share, so the only drop pressure on
    // its queue is the incast eating the pool next door.
    tcp::TcpConfig tcp;
    tcp.mode = tcp::CcMode::kReno;  // no ECN: pressure comes from loss
    tcp.min_rto = 0.01;
    tcp.init_rto = 0.01;
    tcp::Connection victim(net, *senders[3], victim_dst, tcp, 20);
    victim.start_at(300e-6);
    net.sim().run();

    out.victim_completed = victim.sender().completed();
    out.victim_drops = leaf1.port(victim_port).disc().drops();
    out.incast_drops = leaf1.port(target_port).disc().drops();
    out.pool_peak = pool.peak_used();
    return out;
  };

  const Outcome dt = run(/*alpha=*/1.0, /*headroom_pkts=*/8);
  const Outcome naive = run(/*alpha=*/0.0, /*headroom_pkts=*/0);

  // Both incast ports are genuinely overloaded.
  EXPECT_GT(dt.incast_drops, 0u);
  EXPECT_GT(naive.incast_drops, 0u);
  EXPECT_GT(dt.pool_peak, 0u);
  EXPECT_TRUE(dt.victim_completed);
  // DT + headroom: the victim's port never rejects a packet.
  EXPECT_EQ(dt.victim_drops, 0u);
  // Full sharing lets the incast monopolize the pool and the victim
  // pays for it — the failure mode DT exists to prevent.
  EXPECT_GT(naive.victim_drops, 0u);
  // The cap is visible in the pool itself: DT never lets the incast pin
  // the pool at capacity, the naive config does exactly that.
  EXPECT_EQ(naive.pool_peak, 80 * kMtu);
  EXPECT_LT(dt.pool_peak, naive.pool_peak);
}

TEST(LeafSpine, RerouteHasNoSpineZeroAssumption) {
  // Audit regression: route recomputation must respect an arbitrary
  // down link, not just re-derive the first-spine/first-port layout.
  // Down leaf0<->spine0; leaf0's traffic must flow via spine1 only.
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  auto fab = sim::build_leaf_spine(cfg, queue::drop_tail(0, 0));
  // Port layout pinned by the builder: leaf l's spine links come first
  // (port s = spine s), spine s's leaf links in leaf order (port l =
  // leaf l).
  sim::Switch* leaf0 = fab.edges[0];
  sim::Switch* spine0 = fab.cores[0];
  fab.net->rebuild_routes(
      [&](const sim::Switch& sw, std::size_t p) {
        if (&sw == leaf0 && p == 0) return false;   // leaf0 -> spine0
        if (&sw == spine0 && p == 0) return false;  // spine0 -> leaf0
        return true;
      },
      nullptr);

  ProbeSink sink;
  auto* src = fab.hosts[0];  // leaf 0
  auto* dst = fab.hosts[2];  // leaf 1
  dst->bind_flow(4242, &sink);
  for (int i = 0; i < 8; ++i) {
    sim::Packet p;
    p.flow = 4242;
    p.src = src->id();
    p.dst = dst->id();
    p.size_bytes = 100;
    src->send(p);
  }
  fab.net->sim().run();
  EXPECT_EQ(sink.count, 8);
  // Nothing from leaf0 crossed spine0.
  EXPECT_EQ(spine0->port(1).packets_sent(), 0u);  // spine0 -> leaf1
  for (auto* sw : fab.edges) EXPECT_EQ(sw->unrouted_drops(), 0u);
}

// ---- Star builder ---------------------------------------------------------

TEST(Star, WiresSinkFirstThenEachSenderInOrder) {
  sim::Network net;
  const sim::StarConfig cfg{3, units::gbps(1), units::gbps(40), 7e-6};
  const sim::Star star = sim::build_star(
      net, cfg,
      queue::ecn_threshold(0, 0, 20.0, queue::ThresholdUnit::kPackets));

  ASSERT_EQ(net.nodes().size(), 5u);
  EXPECT_EQ(star.sw->id(), 0u);
  EXPECT_EQ(star.sink->id(), 1u);
  ASSERT_EQ(star.senders.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(star.senders[i]->id(), i + 2);
  }

  ASSERT_EQ(star.sw->port_count(), 4u);
  EXPECT_EQ(star.bottleneck_port, 0u);
  EXPECT_EQ(&star.bottleneck(), &star.sw->port(0));
  EXPECT_EQ(star.bottleneck().peer(), star.sink);
  EXPECT_EQ(star.bottleneck().rate_bps(), cfg.bottleneck_bps);
  EXPECT_EQ(star.bottleneck().prop_delay(), cfg.leg);
  EXPECT_NE(dynamic_cast<queue::EcnThresholdQueue*>(&star.bottleneck().disc()),
            nullptr);
  EXPECT_EQ(star.sink->uplink().peer(), star.sw);
  EXPECT_EQ(star.sink->uplink().rate_bps(), cfg.bottleneck_bps);
  EXPECT_EQ(star.sink->uplink().prop_delay(), cfg.leg);

  for (std::size_t i = 0; i < 3; ++i) {
    sim::Port& ack = star.sw->port(i + 1);
    sim::Port& nic = star.senders[i]->uplink();
    EXPECT_EQ(ack.peer(), star.senders[i]);
    EXPECT_EQ(ack.rate_bps(), cfg.edge_bps);
    EXPECT_EQ(ack.prop_delay(), cfg.leg);
    // No ack_return factory: unbounded drop-tail toward the senders.
    EXPECT_NE(dynamic_cast<queue::DropTailQueue*>(&ack.disc()), nullptr);
    EXPECT_EQ(nic.peer(), star.sw);
    EXPECT_EQ(nic.rate_bps(), cfg.edge_bps);
    EXPECT_EQ(nic.prop_delay(), cfg.leg);
  }
}

TEST(Star, BuildsOneBottleneckQueueAndOneAckReturnQueuePerSender) {
  int bottleneck_calls = 0;
  int ack_calls = 0;
  const auto counting = [](int& calls) -> sim::QueueFactory {
    return [&calls] {
      ++calls;
      return std::make_unique<queue::DropTailQueue>(0, 0);
    };
  };
  sim::Network net;
  sim::build_star(net, {.senders = 4}, counting(bottleneck_calls),
                  counting(ack_calls));
  EXPECT_EQ(bottleneck_calls, 1);
  EXPECT_EQ(ack_calls, 4);
}

TEST(Star, EverySenderReachesTheSink) {
  sim::Network net;
  const sim::Star star =
      sim::build_star(net, {.senders = 5}, queue::drop_tail(0, 0));
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  for (sim::Host* sender : star.senders) {
    conns.push_back(std::make_unique<tcp::Connection>(
        net, *sender, *star.sink, tcp::TcpConfig{}, 20));
    conns.back()->start_at(0.0);
  }
  net.sim().run();
  for (const auto& conn : conns) {
    EXPECT_TRUE(conn->sender().completed());
    EXPECT_EQ(conn->receiver().next_expected(), 20);
  }
  EXPECT_EQ(star.sw->unrouted_drops(), 0u);
}

}  // namespace
}  // namespace dtdctcp
