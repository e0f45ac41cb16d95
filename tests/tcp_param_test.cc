// Parameterized TCP correctness sweep: every congestion-control mode,
// ACK policy, flow size, and bottleneck tightness must deliver the flow
// exactly and without pathological retransmission behaviour.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "queue/factory.h"
#include "sim/star.h"
#include "tcp/connection.h"

namespace dtdctcp {
namespace {

struct TransferCase {
  tcp::CcMode mode;
  bool delayed_ack;
  std::int64_t segments;
  std::size_t bottleneck_queue_pkts;  // 0 = unlimited
};

std::string case_name(const ::testing::TestParamInfo<TransferCase>& info) {
  const auto& p = info.param;
  std::string s;
  switch (p.mode) {
    case tcp::CcMode::kReno: s += "Reno"; break;
    case tcp::CcMode::kEcnReno: s += "EcnReno"; break;
    case tcp::CcMode::kDctcp: s += "Dctcp"; break;
    case tcp::CcMode::kD2tcp: s += "D2tcp"; break;
    case tcp::CcMode::kCubic: s += "Cubic"; break;
  }
  s += p.delayed_ack ? "Delack" : "Immediate";
  s += "Segs";
  s += std::to_string(p.segments);
  s += "Q";
  s += std::to_string(p.bottleneck_queue_pkts);
  return s;
}

class TcpTransferSweep : public ::testing::TestWithParam<TransferCase> {};

TEST_P(TcpTransferSweep, DeliversEverySegmentExactlyOnce) {
  const TransferCase& tc = GetParam();

  sim::Network net;
  // Marking queue so ECN modes actually exercise their reaction path.
  const sim::Star star = sim::build_star(
      net, {1, units::mbps(200), units::gbps(1), 25e-6},
      queue::ecn_threshold(0, tc.bottleneck_queue_pkts, 20.0,
                           queue::ThresholdUnit::kPackets));

  tcp::TcpConfig cfg;
  cfg.mode = tc.mode;
  cfg.delayed_ack = tc.delayed_ack;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;

  tcp::Connection conn(net, *star.senders[0], *star.sink, cfg, tc.segments);
  conn.start_at(0.0);
  net.sim().run();

  // Correctness invariants.
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.sender().snd_una(), tc.segments);
  EXPECT_EQ(conn.receiver().next_expected(), tc.segments);
  // No retransmission storm: each sent segment is original or a bounded
  // number of retries.
  EXPECT_LE(conn.sender().segments_sent(),
            static_cast<std::uint64_t>(tc.segments) +
                3 * (conn.sender().retransmissions() + 1));
  // The receiver saw at least every segment once.
  EXPECT_GE(conn.receiver().segments_received(),
            static_cast<std::uint64_t>(tc.segments));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndShapes, TcpTransferSweep,
    ::testing::Values(
        TransferCase{tcp::CcMode::kReno, false, 1, 0},
        TransferCase{tcp::CcMode::kReno, false, 50, 0},
        TransferCase{tcp::CcMode::kReno, false, 500, 16},
        TransferCase{tcp::CcMode::kReno, true, 500, 16},
        TransferCase{tcp::CcMode::kReno, false, 2000, 8},
        TransferCase{tcp::CcMode::kEcnReno, false, 50, 0},
        TransferCase{tcp::CcMode::kEcnReno, false, 500, 16},
        TransferCase{tcp::CcMode::kEcnReno, true, 500, 16},
        TransferCase{tcp::CcMode::kEcnReno, false, 2000, 8},
        TransferCase{tcp::CcMode::kDctcp, false, 1, 0},
        TransferCase{tcp::CcMode::kDctcp, false, 50, 0},
        TransferCase{tcp::CcMode::kDctcp, false, 500, 16},
        TransferCase{tcp::CcMode::kDctcp, true, 500, 16},
        TransferCase{tcp::CcMode::kDctcp, true, 2000, 8},
        TransferCase{tcp::CcMode::kDctcp, false, 2000, 8}),
    case_name);

// Fan-in sweep: K flows from distinct hosts into one sink must all
// complete and split the bottleneck without starvation.
class TcpFanInSweep : public ::testing::TestWithParam<int> {};

TEST_P(TcpFanInSweep, AllFlowsCompleteAndNoneStarves) {
  const int flows = GetParam();
  sim::Network net;
  const sim::Star star = sim::build_star(
      net,
      {static_cast<std::size_t>(flows), units::mbps(500), units::gbps(1),
       25e-6},
      queue::ecn_threshold(0, 64, 20.0, queue::ThresholdUnit::kPackets));

  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  constexpr std::int64_t kSegs = 300;
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  for (auto* h : star.senders) {
    conns.push_back(
        std::make_unique<tcp::Connection>(net, *h, *star.sink, cfg, kSegs));
    conns.back()->start_at(0.0);
  }
  net.sim().run();
  for (int i = 0; i < flows; ++i) {
    EXPECT_TRUE(conns[i]->sender().completed()) << "flow " << i;
    EXPECT_EQ(conns[i]->receiver().next_expected(), kSegs) << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(FanIn, TcpFanInSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

// Mixed modes on one bottleneck: DCTCP and Reno coexist; everyone
// finishes (TCP-friendliness smoke, not a fairness theorem).
TEST(TcpMixedModes, DctcpAndRenoCoexist) {
  sim::Network net;
  const sim::Star star = sim::build_star(
      net, {2, units::mbps(200), units::gbps(1), 25e-6},
      queue::ecn_threshold(0, 64, 20.0, queue::ThresholdUnit::kPackets));

  tcp::TcpConfig dctcp;
  dctcp.mode = tcp::CcMode::kDctcp;
  dctcp.min_rto = 0.01;
  dctcp.init_rto = 0.01;
  tcp::TcpConfig reno;
  reno.mode = tcp::CcMode::kReno;
  reno.min_rto = 0.01;
  reno.init_rto = 0.01;

  tcp::Connection c1(net, *star.senders[0], *star.sink, dctcp, 2000);
  tcp::Connection c2(net, *star.senders[1], *star.sink, reno, 2000);
  c1.start_at(0.0);
  c2.start_at(0.0);
  net.sim().run();
  EXPECT_TRUE(c1.sender().completed());
  EXPECT_TRUE(c2.sender().completed());
}

}  // namespace
}  // namespace dtdctcp
