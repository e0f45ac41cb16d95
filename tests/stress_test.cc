// Randomized stress/property suite: random topologies, random flow
// mixes, and systemic invariants that must hold for every seed —
// completion, exactness, conservation, and routing sanity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/checker.h"
#include "queue/factory.h"
#include "sim/network.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace dtdctcp {
namespace {

// With DTDCTCP_CHECK=1 in the environment (the Debug CI leg), every
// test in this binary runs under the invariant checker; any violation
// aborts with a report. Without it the scope is inert.
class InvariantCheckEnv : public ::testing::Environment {
 public:
  void SetUp() override { scope_ = std::make_unique<check::CheckScope>(); }
  void TearDown() override { scope_.reset(); }

 private:
  std::unique_ptr<check::CheckScope> scope_;
};
[[maybe_unused]] const auto* const kInvariantCheckEnv =
    ::testing::AddGlobalTestEnvironment(new InvariantCheckEnv);

// A random switch tree with hosts hanging off random switches, built in
// place (a Network never moves). Tree topology guarantees reachability
// through build_routes.
struct RandomWorld {
  explicit RandomWorld(Rng& rng);

  sim::Network net;
  std::vector<sim::Switch*> switches;
  std::vector<sim::Host*> hosts;
};

RandomWorld::RandomWorld(Rng& rng) {
  const int n_switches = static_cast<int>(rng.uniform_int(2, 4));
  const int n_hosts = static_cast<int>(rng.uniform_int(4, 10));
  const auto q = queue::drop_tail(0, 0);

  for (int i = 0; i < n_switches; ++i) {
    switches.push_back(&net.add_switch("sw" + std::to_string(i)));
    if (i > 0) {
      // Attach to a random earlier switch: a tree.
      auto* parent = switches[static_cast<std::size_t>(
          rng.uniform_int(0, i - 1))];
      net.connect_switches(*switches[i], *parent,
                           units::gbps(rng.uniform_int(1, 10)),
                           rng.uniform(1e-6, 50e-6), q, q);
    }
  }
  for (int i = 0; i < n_hosts; ++i) {
    auto& h = net.add_host(sim::numbered("h", i));
    auto* sw = switches[static_cast<std::size_t>(
        rng.uniform_int(0, n_switches - 1))];
    // Random discipline on the switch-to-host egress.
    sim::QueueFactory disc;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        disc = queue::drop_tail(0, static_cast<std::size_t>(
                                       rng.uniform_int(16, 200)));
        break;
      case 1:
        disc = queue::ecn_threshold(
            0, static_cast<std::size_t>(rng.uniform_int(32, 200)),
            rng.uniform(5.0, 40.0), queue::ThresholdUnit::kPackets);
        break;
      default: {
        const double k1 = rng.uniform(5.0, 25.0);
        const double k2 = k1 + rng.uniform(2.0, 25.0);
        disc = queue::MarkingRule::dt_dctcp(k1, k2).queue_factory(
            0, static_cast<std::size_t>(rng.uniform_int(32, 200)));
        break;
      }
    }
    net.attach_host(h, *sw, units::gbps(rng.uniform_int(1, 10)),
                    rng.uniform(1e-6, 50e-6), q, disc);
    hosts.push_back(&h);
  }
  net.build_routes();
}

class StressSweep : public ::testing::TestWithParam<int> {};

TEST_P(StressSweep, RandomFlowsAllCompleteExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  RandomWorld w(rng);

  struct FlowRec {
    std::unique_ptr<tcp::Connection> conn;
    std::int64_t segments;
  };
  std::vector<FlowRec> flows;
  const int n_flows = static_cast<int>(rng.uniform_int(10, 25));
  for (int i = 0; i < n_flows; ++i) {
    auto* src = w.hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.hosts.size()) - 1))];
    sim::Host* dst = src;
    while (dst == src) {
      dst = w.hosts[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(w.hosts.size()) - 1))];
    }
    tcp::TcpConfig cfg;
    switch (rng.uniform_int(0, 3)) {
      case 0: cfg.mode = tcp::CcMode::kReno; break;
      case 1: cfg.mode = tcp::CcMode::kEcnReno; break;
      case 2: cfg.mode = tcp::CcMode::kCubic; break;
      default: cfg.mode = tcp::CcMode::kDctcp; break;
    }
    cfg.sack_enabled = rng.bernoulli(0.5);
    cfg.pacing = rng.bernoulli(0.25);
    cfg.delayed_ack = rng.bernoulli(0.3);
    cfg.min_rto = 0.01;
    cfg.init_rto = 0.01;
    const auto segments = rng.uniform_int(1, 800);
    auto conn = std::make_unique<tcp::Connection>(w.net, *src, *dst, cfg,
                                                  segments);
    conn->start_at(rng.uniform(0.0, 0.01));
    flows.push_back({std::move(conn), segments});
  }

  w.net.sim().run();

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    // Completion and exactness.
    EXPECT_TRUE(f.conn->sender().completed()) << "flow " << i;
    EXPECT_EQ(f.conn->sender().snd_una(), f.segments) << "flow " << i;
    EXPECT_EQ(f.conn->receiver().next_expected(), f.segments)
        << "flow " << i;
    // The receiver never saw more than sent.
    EXPECT_LE(f.conn->receiver().segments_received(),
              f.conn->sender().segments_sent())
        << "flow " << i;
    // Bounded retransmission effort.
    EXPECT_LE(f.conn->sender().segments_sent(),
              static_cast<std::uint64_t>(f.segments) * 4 + 64)
        << "flow " << i;
  }
  // Routing sanity: nothing unrouted, nothing delivered to unbound flows.
  for (auto* sw : w.switches) EXPECT_EQ(sw->unrouted_drops(), 0u);
  for (auto* h : w.hosts) EXPECT_EQ(h->unbound_drops(), 0u);
  // The event loop drained completely (no stuck timers or livelock).
  EXPECT_TRUE(w.net.sim().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace dtdctcp
