// SACK tests: receiver block generation, sender scoreboard recovery,
// and end-to-end behaviour under multi-loss episodes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "queue/factory.h"
#include "sim/star.h"
#include "tcp/connection.h"

namespace dtdctcp {
namespace {

class AckCollector : public sim::PacketSink {
 public:
  void deliver(sim::Packet pkt) override { acks.push_back(pkt); }
  std::vector<sim::Packet> acks;
};

struct RxRig {
  sim::Network net;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
  AckCollector collector;
  static constexpr sim::FlowId kFlow = 5;

  RxRig() {
    const sim::Star star = sim::build_star(
        net, {1, units::gbps(10), units::gbps(10), 1e-6},
        queue::drop_tail(0, 0));
    a = star.senders[0];
    b = star.sink;
    a->bind_flow(kFlow, &collector);
  }

  sim::Packet data(std::int64_t seq) {
    sim::Packet p;
    p.flow = kFlow;
    p.src = a->id();
    p.dst = b->id();
    p.size_bytes = 1500;
    p.seq = seq;
    p.ect = true;
    return p;
  }
};

tcp::TcpConfig sack_cfg() {
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kReno;
  cfg.sack_enabled = true;
  cfg.min_rto = 0.05;
  cfg.init_rto = 0.05;
  return cfg;
}

TEST(SackReceiver, ReportsSingleGapBlock) {
  RxRig rig;
  tcp::TcpReceiver rx(rig.net.sim(), *rig.b, rig.a->id(), RxRig::kFlow,
                      sack_cfg());
  rx.deliver(rig.data(0));
  rx.deliver(rig.data(2));  // hole at 1
  rig.net.sim().run();
  ASSERT_EQ(rig.collector.acks.size(), 2u);
  EXPECT_EQ(rig.collector.acks[0].sack_count, 0);
  ASSERT_EQ(rig.collector.acks[1].sack_count, 1);
  EXPECT_EQ(rig.collector.acks[1].sack_begin(0), 2);
  EXPECT_EQ(rig.collector.acks[1].sack_end(0), 3);
}

TEST(SackReceiver, TriggerBlockListedFirst) {
  RxRig rig;
  tcp::TcpReceiver rx(rig.net.sim(), *rig.b, rig.a->id(), RxRig::kFlow,
                      sack_cfg());
  rx.deliver(rig.data(0));
  rx.deliver(rig.data(5));   // run {5}
  rx.deliver(rig.data(2));   // run {2}, trigger -> first block
  rig.net.sim().run();
  ASSERT_EQ(rig.collector.acks.size(), 3u);
  const auto& ack = rig.collector.acks[2];
  ASSERT_GE(ack.sack_count, 2);
  EXPECT_EQ(ack.sack_begin(0), 2);
  EXPECT_EQ(ack.sack_end(0), 3);
  EXPECT_EQ(ack.sack_begin(1), 5);
  EXPECT_EQ(ack.sack_end(1), 6);
}

TEST(SackReceiver, MergesContiguousRuns) {
  RxRig rig;
  tcp::TcpReceiver rx(rig.net.sim(), *rig.b, rig.a->id(), RxRig::kFlow,
                      sack_cfg());
  rx.deliver(rig.data(0));
  rx.deliver(rig.data(3));
  rx.deliver(rig.data(4));
  rx.deliver(rig.data(5));  // one run {3,4,5}
  rig.net.sim().run();
  const auto& ack = rig.collector.acks.back();
  ASSERT_EQ(ack.sack_count, 1);
  EXPECT_EQ(ack.sack_begin(0), 3);
  EXPECT_EQ(ack.sack_end(0), 6);
}

TEST(SackReceiver, AtMostThreeBlocks) {
  RxRig rig;
  tcp::TcpReceiver rx(rig.net.sim(), *rig.b, rig.a->id(), RxRig::kFlow,
                      sack_cfg());
  rx.deliver(rig.data(0));
  for (std::int64_t s : {2, 4, 6, 8, 10}) rx.deliver(rig.data(s));
  rig.net.sim().run();
  const auto& ack = rig.collector.acks.back();
  EXPECT_EQ(ack.sack_count, 3);
}

TEST(SackReceiver, NoBlocksWithoutSackEnabled) {
  RxRig rig;
  tcp::TcpConfig cfg = sack_cfg();
  cfg.sack_enabled = false;
  tcp::TcpReceiver rx(rig.net.sim(), *rig.b, rig.a->id(), RxRig::kFlow, cfg);
  rx.deliver(rig.data(0));
  rx.deliver(rig.data(2));
  rig.net.sim().run();
  EXPECT_EQ(rig.collector.acks.back().sack_count, 0);
}

// --- sender scoreboard (direct ACK injection) ---------------------------

class DataCollector : public sim::PacketSink {
 public:
  void deliver(sim::Packet pkt) override { data.push_back(pkt); }
  std::vector<sim::Packet> data;
};

TEST(SackSender, RetransmitsExactlyTheHoles) {
  sim::Network net;
  const sim::Star star =
      sim::build_star(net, {1, units::gbps(10), units::gbps(10), 1e-6},
                      queue::drop_tail(0, 0));
  sim::Host& a = *star.senders[0];
  sim::Host& b = *star.sink;
  DataCollector sink;
  b.bind_flow(9, &sink);

  auto cfg = sack_cfg();
  cfg.init_cwnd = 10.0;
  cfg.min_rto = 1.0;
  cfg.init_rto = 1.0;
  tcp::TcpSender tx(net.sim(), a, b.id(), 9, cfg, 100);
  tx.start_at(0.0);
  net.sim().run_until(0.001);
  sink.data.clear();

  // Receiver "got" 0 and 3..9; 1 and 2 are holes. An initial cumulative
  // ACK for seq 0, then three dup ACKs carrying growing SACK blocks.
  auto make_ack = [&](std::int64_t upto) {
    sim::Packet ack;
    ack.flow = 9;
    ack.src = b.id();
    ack.dst = a.id();
    ack.is_ack = true;
    ack.size_bytes = 40;
    ack.seq = 1;  // cumulative: got seq 0
    if (upto > 3) {
      ack.add_sack_block(3, upto);
    }
    return ack;
  };
  tx.deliver(make_ack(0));   // plain new ACK
  tx.deliver(make_ack(4));   // dup 1
  tx.deliver(make_ack(7));   // dup 2
  tx.deliver(make_ack(10));  // dup 3 -> recovery, forced first hole
  tx.deliver(make_ack(12));  // dup 4 shrinks the pipe -> second hole
  net.sim().run_until(0.002);

  // Exactly the two holes were retransmitted, nothing else.
  std::vector<std::int64_t> rtx;
  for (const auto& p : sink.data) {
    if (p.retransmit) rtx.push_back(p.seq);
  }
  ASSERT_EQ(rtx.size(), 2u);
  EXPECT_EQ(rtx[0], 1);
  EXPECT_EQ(rtx[1], 2);
  EXPECT_EQ(tx.sacked_segments(), 9u);
  EXPECT_EQ(tx.timeouts(), 0u);
}

// --- end to end -----------------------------------------------------------

// Built in place: a Network never moves.
struct LossyPath {
  explicit LossyPath(std::size_t queue_pkts) {
    const sim::Star star =
        sim::build_star(net, {1, units::mbps(50), units::gbps(1), 25e-6},
                        queue::drop_tail(0, queue_pkts));
    a = star.senders[0];
    b = star.sink;
  }

  sim::Network net;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
};

TEST(SackEndToEnd, SurvivesMultiLossBurstsWithoutTimeouts) {
  // A large initial burst into a tiny queue loses many segments of one
  // window; SACK recovers them all in about one RTT without RTO.
  LossyPath p(6);
  auto cfg = sack_cfg();
  cfg.init_cwnd = 24.0;
  cfg.min_rto = 0.5;  // any timeout would dominate the completion time
  cfg.init_rto = 0.5;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 200);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 200);
  EXPECT_EQ(conn.sender().timeouts(), 0u);
  EXPECT_GT(conn.sender().retransmissions(), 3u);
}

TEST(SackEndToEnd, FasterThanNewRenoUnderMultiLoss) {
  auto run = [&](bool sack) {
    LossyPath p(6);
    auto cfg = sack_cfg();
    cfg.sack_enabled = sack;
    cfg.init_cwnd = 24.0;
    cfg.min_rto = 0.2;
    cfg.init_rto = 0.2;
    tcp::Connection conn(p.net, *p.a, *p.b, cfg, 200);
    conn.start_at(0.0);
    p.net.sim().run();
    EXPECT_TRUE(conn.sender().completed());
    return conn.sender().completion_time();
  };
  const double with_sack = run(true);
  const double without = run(false);
  EXPECT_LE(with_sack, without);
}

TEST(SackEndToEnd, DctcpWithSackCompletes) {
  LossyPath p(8);
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.sack_enabled = true;
  cfg.min_rto = 0.05;
  cfg.init_rto = 0.05;
  tcp::Connection conn(p.net, *p.a, *p.b, cfg, 500);
  conn.start_at(0.0);
  p.net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 500);
}

TEST(SackEndToEnd, CleanPathNoSackBlocksNoRetransmissions) {
  sim::Network net;
  const sim::Star star =
      sim::build_star(net, {1, units::mbps(100), units::gbps(1), 25e-6},
                      queue::drop_tail(0, 0));
  tcp::Connection conn(net, *star.senders[0], *star.sink, sack_cfg(), 300);
  conn.start_at(0.0);
  net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.sender().retransmissions(), 0u);
  EXPECT_EQ(conn.sender().sacked_segments(), 0u);
}

}  // namespace
}  // namespace dtdctcp
