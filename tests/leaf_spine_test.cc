// Leaf-spine fabric and ECMP routing tests.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "queue/factory.h"
#include "sim/fabric.h"
#include "tcp/connection.h"

namespace dtdctcp {
namespace {

sim::LeafSpineConfig small_fabric() {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 3;
  cfg.hosts_per_leaf = 2;
  cfg.host_link_bps = units::gbps(1);
  cfg.fabric_link_bps = units::gbps(4);
  return cfg;
}

TEST(LeafSpine, BuildsExpectedShape) {
  auto fab = sim::build_leaf_spine(small_fabric(), queue::drop_tail(0, 0));
  EXPECT_EQ(fab.cores.size(), 2u);
  EXPECT_EQ(fab.edges.size(), 3u);
  EXPECT_TRUE(fab.aggs.empty());
  EXPECT_EQ(fab.hosts.size(), 6u);
  // Each leaf: 2 spine uplinks + 2 host downlinks.
  for (auto* leaf : fab.edges) EXPECT_EQ(leaf->port_count(), 4u);
  // Each spine: one port per leaf.
  for (auto* spine : fab.cores) EXPECT_EQ(spine->port_count(), 3u);
  // Link l*S + s joins leaf l (port s) to spine s (port l).
  const std::size_t spines = fab.cores.size();
  ASSERT_EQ(fab.links.size(), fab.edges.size() * spines);
  for (std::size_t l = 0; l < fab.edges.size(); ++l) {
    for (std::size_t s = 0; s < spines; ++s) {
      const sim::FabricLink& link = fab.links[l * spines + s];
      EXPECT_EQ(link.a, fab.edges[l]);
      EXPECT_EQ(link.a_port, s);
      EXPECT_EQ(link.b, fab.cores[s]);
      EXPECT_EQ(link.b_port, l);
      EXPECT_EQ(link.tier, sim::FabricLink::Tier::kEdgeCore);
    }
  }
}

TEST(LeafSpine, AllPairsReachable) {
  auto fab = sim::build_leaf_spine(small_fabric(), queue::drop_tail(0, 0));
  class Counter : public sim::PacketSink {
   public:
    void deliver(sim::Packet) override { ++count; }
    int count = 0;
  };
  // Send one probe between every ordered host pair on its own flow id.
  std::vector<std::unique_ptr<Counter>> counters;
  int expected = 0;
  sim::FlowId flow = 1000;
  for (auto* src : fab.hosts) {
    for (auto* dst : fab.hosts) {
      if (src == dst) continue;
      counters.push_back(std::make_unique<Counter>());
      dst->bind_flow(flow, counters.back().get());
      sim::Packet p;
      p.flow = flow++;
      p.src = src->id();
      p.dst = dst->id();
      p.size_bytes = 100;
      src->send(p);
      ++expected;
    }
  }
  fab.net->sim().run();
  int delivered = 0;
  for (const auto& c : counters) delivered += c->count;
  EXPECT_EQ(delivered, expected);
  for (auto* sw : fab.edges) EXPECT_EQ(sw->unrouted_drops(), 0u);
  for (auto* sw : fab.cores) EXPECT_EQ(sw->unrouted_drops(), 0u);
}

TEST(LeafSpine, EcmpSpreadsFlowsAcrossSpines) {
  auto fab = sim::build_leaf_spine(small_fabric(), queue::drop_tail(0, 0));
  // Count cross-rack flows landing on each spine via the deterministic
  // hash (the same function the switch uses).
  std::map<std::size_t, int> member_counts;
  constexpr int kFlows = 1000;
  for (sim::FlowId f = 0; f < kFlows; ++f) {
    ++member_counts[sim::Switch::ecmp_pick(f, 2)];
  }
  ASSERT_EQ(member_counts.size(), 2u);
  EXPECT_NEAR(member_counts[0], kFlows / 2, kFlows / 10);
  EXPECT_NEAR(member_counts[1], kFlows / 2, kFlows / 10);
}

TEST(LeafSpine, EcmpIsPerFlowStable) {
  // All packets of one flow take the same spine: with per-packet
  // spraying a transfer would reorder massively; per-flow ECMP keeps
  // zero retransmissions on a clean fabric.
  auto fab = sim::build_leaf_spine(small_fabric(), queue::drop_tail(0, 0));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  // Cross-rack transfer.
  tcp::Connection conn(*fab.net, *fab.hosts[0], *fab.hosts[4], cfg, 500);
  conn.start_at(0.0);
  fab.net->sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.sender().retransmissions(), 0u);
}

TEST(LeafSpine, IntraRackTrafficStaysOffTheFabric) {
  auto fab = sim::build_leaf_spine(small_fabric(), queue::drop_tail(0, 0));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  // Hosts 0 and 1 share leaf 0.
  tcp::Connection conn(*fab.net, *fab.hosts[0], *fab.hosts[1], cfg, 200);
  conn.start_at(0.0);
  fab.net->sim().run();
  EXPECT_TRUE(conn.sender().completed());
  for (auto* spine : fab.cores) {
    for (std::size_t p = 0; p < spine->port_count(); ++p) {
      EXPECT_EQ(spine->port(p).packets_sent(), 0u);
    }
  }
}

TEST(LeafSpine, ManyToManyDctcpCompletesWithMarking) {
  auto cfg_fab = small_fabric();
  auto fab = sim::build_leaf_spine(
      cfg_fab, queue::ecn_threshold(0, 200, 20.0,
                                    queue::ThresholdUnit::kPackets));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  // Every host sends to the "next rack" peer.
  for (std::size_t i = 0; i < fab.hosts.size(); ++i) {
    const std::size_t j = (i + cfg_fab.hosts_per_leaf) % fab.hosts.size();
    conns.push_back(std::make_unique<tcp::Connection>(
        *fab.net, *fab.hosts[i], *fab.hosts[j], cfg, 400));
    conns.back()->start_at(0.0);
  }
  fab.net->sim().run();
  for (const auto& c : conns) EXPECT_TRUE(c->sender().completed());
}

}  // namespace
}  // namespace dtdctcp
