// TCP sender/receiver behaviour over a real simulated network path.
#include <gtest/gtest.h>

#include <memory>

#include "queue/factory.h"
#include "sim/star.h"
#include "tcp/connection.h"

namespace dtdctcp {
namespace {

// One switch, sender a and sink b. The edge link (a -> switch) is faster
// than the bottleneck (switch -> b) so congestion forms at the switch,
// as in the paper's topologies. `bneck_factory` installs the bottleneck
// queue discipline (default: unlimited drop-tail). Built in place: a
// Network never moves.
struct Path {
  explicit Path(DataRate bottleneck = units::mbps(100),
                DataRate edge = units::gbps(1), SimTime leg = 25e-6,
                sim::QueueFactory bneck_factory = queue::drop_tail(0, 0)) {
    star = sim::build_star(net, {1, bottleneck, edge, leg}, bneck_factory);
    a = star.senders[0];
    b = star.sink;
  }

  sim::QueueDisc& bottleneck_disc() { return star.bottleneck().disc(); }

  sim::Network net;
  sim::Star star;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
};

tcp::TcpConfig reno_config() {
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kReno;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  return cfg;
}

TEST(Tcp, TransfersAllSegmentsExactlyOnceWithoutLoss) {
  Path p;
  tcp::Connection conn(p.net, *p.a, *p.b, reno_config(), 100);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 100);
  EXPECT_EQ(conn.sender().retransmissions(), 0u);
  EXPECT_EQ(conn.sender().timeouts(), 0u);
  EXPECT_EQ(conn.sender().segments_sent(), 100u);
}

TEST(Tcp, CompletionCallbackFires) {
  Path p;
  tcp::Connection conn(p.net, *p.a, *p.b, reno_config(), 10);
  SimTime done_at = -1.0;
  conn.set_on_complete([&](SimTime t) { done_at = t; });
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_GT(done_at, 0.0);
  EXPECT_DOUBLE_EQ(done_at, conn.sender().completion_time());
}

TEST(Tcp, SlowStartGrowsWindowExponentially) {
  Path p(units::gbps(1), units::gbps(10));
  tcp::TcpConfig cfg = reno_config();
  cfg.init_cwnd = 2.0;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 0);
  conn.start_at(0.0);
  // Propagation RTT = 100 us. After ~5 RTTs of unimpeded slow start from
  // 2, cwnd must have grown far beyond linear (2 + 5) growth.
  p.net.sim().run_until(5.5 * 100e-6);
  EXPECT_GE(conn.sender().cwnd(), 24.0);
}

TEST(Tcp, RttEstimateConvergesToPathRtt) {
  // Small transfer on a fast path: negligible queueing delay, so SRTT
  // must approach the 100 us propagation RTT.
  Path p(units::gbps(10), units::gbps(10));
  tcp::TcpConfig cfg = reno_config();
  cfg.max_cwnd = 8.0;  // keep self-queueing negligible
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 500);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_GE(conn.sender().srtt(), 100e-6);
  EXPECT_LE(conn.sender().srtt(), 200e-6);
}

TEST(Tcp, FastRetransmitRecoversSingleLossWithoutTimeout) {
  // Tight bottleneck queue forces drops during slow start; dup ACKs must
  // recover them without any RTO.
  Path p(units::mbps(100), units::gbps(1), 25e-6,
         queue::drop_tail(0, 8));
  tcp::TcpConfig cfg = reno_config();
  cfg.min_rto = 0.2;  // a timeout would be catastrophic and visible
  cfg.init_rto = 0.2;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 300);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 300);
  EXPECT_GT(conn.sender().fast_retransmits(), 0u);
  // NewReno without limited-transmit can still RTO on a tail loss (too
  // few dup ACKs); anything beyond one such episode signals a recovery
  // bug.
  EXPECT_LE(conn.sender().timeouts(), 1u);
  EXPECT_GT(p.bottleneck_disc().drops(), 0u);
  // Every dropped segment was retransmitted about once: no retransmission
  // storms.
  EXPECT_LE(conn.sender().retransmissions(),
            p.bottleneck_disc().drops() + 3);
}

TEST(Tcp, TimeoutRecoversFromTotalLossEpisode) {
  // 1-packet bottleneck queue and a large initial burst: most of the
  // first flight is lost; with almost no dup ACKs an RTO must fire and
  // the flow must still complete.
  Path p(units::mbps(10), units::gbps(1), 25e-6,
         queue::drop_tail(0, 1));
  tcp::TcpConfig cfg = reno_config();
  cfg.init_cwnd = 64.0;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 128);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 128);
  EXPECT_GT(conn.sender().timeouts(), 0u);
}

TEST(Tcp, LongLivedFlowSaturatesLink) {
  Path p(units::mbps(100), units::gbps(1), 25e-6,
         queue::drop_tail(0, 100));
  tcp::Connection conn(p.net, *p.a, *p.b, reno_config(), 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.5);
  const double goodput =
      static_cast<double>(conn.receiver().bytes_received()) * 8.0 / 0.5;
  EXPECT_GT(goodput, 0.85 * units::mbps(100));
}

TEST(Tcp, DctcpSenderKeepsQueueNearThreshold) {
  // Single DCTCP flow, K = 20 packets: the queue should hover around K
  // rather than filling the buffer.
  Path p(units::mbps(100), units::gbps(1), 25e-6,
         queue::ecn_threshold(0, 0, 20.0,
                              queue::ThresholdUnit::kPackets));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.5);

  EXPECT_LT(p.bottleneck_disc().packets(), 60u);
  EXPECT_GT(p.bottleneck_disc().marks(), 0u);
  const double goodput =
      static_cast<double>(conn.receiver().bytes_received()) * 8.0 / 0.5;
  EXPECT_GT(goodput, 0.85 * units::mbps(100));
  // Alpha converged to a moderate value, not stuck at the 1.0 initial.
  EXPECT_LT(conn.sender().alpha(), 0.9);
}

TEST(Tcp, DctcpAlphaDecaysToZeroWithoutMarks) {
  Path p(units::gbps(1), units::gbps(10));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.dctcp_init_alpha = 1.0;
  cfg.max_cwnd = 32.0;  // bound the window so each window spans ~one RTT
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.2);  // hundreds of unmarked windows
  EXPECT_LT(conn.sender().alpha(), 0.01);
}

TEST(Tcp, EcnRenoReactsToMarksWithoutLoss) {
  Path p(units::mbps(100), units::gbps(1), 25e-6,
         queue::ecn_threshold(0, 0, 20.0,
                              queue::ThresholdUnit::kPackets));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kEcnReno;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.3);
  EXPECT_GT(conn.sender().ecn_reductions(), 0u);
  EXPECT_EQ(conn.sender().timeouts(), 0u);
  EXPECT_EQ(conn.sender().retransmissions(), 0u);
}

TEST(Tcp, RenoIgnoresEcnMarksEntirely) {
  // Non-ECT packets pass an ECN queue unmarked.
  Path p(units::mbps(100), units::gbps(1), 25e-6,
         queue::ecn_threshold(0, 0, 20.0,
                              queue::ThresholdUnit::kPackets));
  tcp::Connection conn(p.net, *p.a, *p.b, reno_config(), 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.1);
  EXPECT_EQ(p.bottleneck_disc().marks(), 0u);
  EXPECT_EQ(conn.sender().ecn_reductions(), 0u);
}

TEST(Tcp, DelayedAckCoalescesAndStillCompletes) {
  Path p;
  tcp::TcpConfig cfg = reno_config();
  cfg.delayed_ack = true;
  cfg.delack_segments = 2;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 101);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 101);
}

TEST(Tcp, DctcpWithDelayedAckStillEstimatesAlpha) {
  Path p(units::mbps(100), units::gbps(1), 25e-6,
         queue::ecn_threshold(0, 0, 10.0,
                              queue::ThresholdUnit::kPackets));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.delayed_ack = true;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 0);
  conn.start_at(0.0);
  p.net.sim().run_until(0.3);
  EXPECT_GT(conn.sender().alpha(), 0.0);
  EXPECT_LT(conn.sender().alpha(), 0.95);
  EXPECT_LT(p.bottleneck_disc().packets(), 50u);
}

TEST(Tcp, TwoFlowsShareFairly) {
  // Two senders on separate hosts through a common bottleneck.
  sim::Network net;
  const sim::Star star =
      sim::build_star(net, {2, units::mbps(100), units::gbps(1), 25e-6},
                      queue::drop_tail(0, 64));

  tcp::TcpConfig cfg = reno_config();
  tcp::Connection c1(net, *star.senders[0], *star.sink, cfg, 0);
  tcp::Connection c2(net, *star.senders[1], *star.sink, cfg, 0);
  c1.start_at(0.0);
  c2.start_at(0.001);
  net.sim().run_until(1.0);
  const double g1 = static_cast<double>(c1.receiver().bytes_received());
  const double g2 = static_cast<double>(c2.receiver().bytes_received());
  // Neither flow starves (>= 25% of the other) and together they use
  // most of the link.
  EXPECT_GT(g1, 0.25 * g2);
  EXPECT_GT(g2, 0.25 * g1);
  EXPECT_GT((g1 + g2) * 8.0 / 1.0, 0.8 * units::mbps(100));
}

// Per-hop packet accounting along a TCP path, read from sim::Counters
// and the receiver rather than re-derived from packet events.

TEST(Trace, PortEmitsTxEvents) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();

  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kReno;
  tcp::Connection conn(net, a, b, cfg, 25);
  conn.start_at(0.0);
  net.sim().run();
  // Every data segment left a's NIC exactly once (no losses here).
  EXPECT_EQ(a.uplink().counters().sent_packets, 25u);
}

TEST(Trace, EndToEndMarkCountMatchesDiscCounter) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 25e-6, q, q);
  const auto port = net.attach_host(
      b, sw, units::mbps(100), 25e-6, q,
      queue::ecn_threshold(0, 0, 10.0, queue::ThresholdUnit::kPackets));
  net.build_routes();

  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  tcp::Connection conn(net, a, b, cfg, 2000);
  conn.start_at(0.0);
  net.sim().run_until(0.1);
  sim::QueueDisc& disc = sw.port(port).disc();
  // Conservation at the queue mid-transfer: enq == deq + still-queued.
  const sim::Counters mid = disc.counters();
  EXPECT_EQ(mid.enqueued, mid.dequeued + disc.packets());

  net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_GT(disc.marks(), 0u);
  // Nothing is lost past the bottleneck, so every CE mark the disc
  // counted reaches the receiver, and the port reports the same total.
  EXPECT_EQ(conn.receiver().ce_received(), disc.marks());
  EXPECT_EQ(sw.port(port).counters().marked, disc.marks());
  const sim::Counters end = disc.counters();
  EXPECT_EQ(end.enqueued, end.dequeued);
  EXPECT_EQ(disc.packets(), 0u);
}

}  // namespace
}  // namespace dtdctcp
