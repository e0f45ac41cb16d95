// Sender pacing tests.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "queue/factory.h"
#include "sim/star.h"
#include "tcp/connection.h"

namespace dtdctcp {
namespace {

/// Records data arrival times while forwarding to the real receiver so
/// the ACK clock keeps running.
class RecordingTap : public sim::PacketSink {
 public:
  RecordingTap(sim::Simulator& sim, sim::PacketSink& inner)
      : sim_(sim), inner_(inner) {}
  void deliver(sim::Packet pkt) override {
    times.push_back(sim_.now());
    inner_.deliver(std::move(pkt));
  }
  sim::Simulator& sim_;
  sim::PacketSink& inner_;
  std::vector<SimTime> times;
};

struct PacingRig {
  sim::Network net;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
  std::unique_ptr<tcp::Connection> conn;
  std::unique_ptr<RecordingTap> tap;

  explicit PacingRig(bool pacing) {
    const sim::Star star = sim::build_star(
        net, {1, units::gbps(10), units::gbps(10), 25e-6},
        queue::drop_tail(0, 0));
    a = star.senders[0];
    b = star.sink;

    tcp::TcpConfig cfg;
    cfg.mode = tcp::CcMode::kReno;
    cfg.pacing = pacing;
    cfg.init_cwnd = 4.0;
    cfg.max_cwnd = 4.0;  // fixed window -> fixed pacing interval
    conn = std::make_unique<tcp::Connection>(net, *a, *b, cfg, 0);
    // Interpose the tap between the host and the receiver.
    tap = std::make_unique<RecordingTap>(
        net.sim(), static_cast<sim::PacketSink&>(conn->receiver()));
    b->bind_flow(conn->flow(), tap.get());
    conn->start_at(0.0);
  }
};

TEST(Pacing, SpreadsSegmentsAcrossTheRtt) {
  // Fast links so serialization is negligible; after the first RTT
  // sample, segments must arrive roughly srtt/cwnd apart instead of
  // back to back. RTT ~100us, cwnd 4 -> interval ~25us; back-to-back at
  // 10 Gbps would be 1.2us.
  PacingRig rig(/*pacing=*/true);
  rig.net.sim().run_until(0.01);
  ASSERT_GT(rig.tap->times.size(), 30u);
  double min_gap = 1.0;
  for (std::size_t i = 8; i + 1 < 30; ++i) {
    min_gap = std::min(min_gap, rig.tap->times[i + 1] - rig.tap->times[i]);
  }
  EXPECT_GT(min_gap, 10e-6);  // clearly spaced, not burst serialization
}

TEST(Pacing, UnpacedSenderBurstsBackToBack) {
  PacingRig rig(/*pacing=*/false);
  rig.net.sim().run_until(0.01);
  ASSERT_GT(rig.tap->times.size(), 8u);
  // Some gap within a window equals the 10 Gbps serialization time.
  double min_gap = 1.0;
  for (std::size_t i = 0; i + 1 < rig.tap->times.size(); ++i) {
    min_gap = std::min(min_gap, rig.tap->times[i + 1] - rig.tap->times[i]);
  }
  EXPECT_LT(min_gap, 2e-6);
}

TEST(Pacing, TransferStillCompletesExactly) {
  sim::Network net;
  const sim::Star star =
      sim::build_star(net, {1, units::mbps(100), units::gbps(1), 25e-6},
                      queue::drop_tail(0, 16));
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.pacing = true;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  tcp::Connection conn(net, *star.senders[0], *star.sink, cfg, 400);
  conn.start_at(0.0);
  net.sim().run();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_EQ(conn.receiver().next_expected(), 400);
}

TEST(Pacing, ReducesBurstDropsAtATinyQueue) {
  auto run = [&](bool pacing) {
    sim::Network net;
    const sim::Star star =
        sim::build_star(net, {1, units::mbps(100), units::gbps(1), 25e-6},
                        queue::drop_tail(0, 8));
    tcp::TcpConfig cfg;
    cfg.mode = tcp::CcMode::kReno;
    cfg.pacing = pacing;
    cfg.min_rto = 0.01;
    cfg.init_rto = 0.01;
    tcp::Connection conn(net, *star.senders[0], *star.sink, cfg, 600);
    conn.start_at(0.0);
    net.sim().run();
    EXPECT_TRUE(conn.sender().completed());
    return star.bottleneck().disc().drops();
  };
  const auto paced = run(true);
  const auto unpaced = run(false);
  EXPECT_LE(paced, unpaced);
}

}  // namespace
}  // namespace dtdctcp
