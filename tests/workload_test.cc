// Workload generator tests: long-lived groups and the incast runner.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "queue/factory.h"
#include "sim/star.h"
#include "workload/incast.h"
#include "workload/long_lived.h"

namespace dtdctcp {
namespace {

// Built in place: a Network never moves.
struct Dumbbell {
  explicit Dumbbell(std::size_t flows) {
    const sim::Star star = sim::build_star(
        net, {.senders = flows},
        queue::ecn_threshold(0, 100, 40.0, queue::ThresholdUnit::kPackets));
    senders = star.senders;
    sink = star.sink;
  }

  sim::Network net;
  std::vector<sim::Host*> senders;
  sim::Host* sink = nullptr;
};

tcp::TcpConfig dctcp_cfg() {
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  return cfg;
}

TEST(LongLivedGroup, AllFlowsMakeProgress) {
  Dumbbell d(8);
  workload::LongLivedGroup group(d.net, d.senders, *d.sink, dctcp_cfg(),
                                 0.001, 1);
  d.net.sim().run_until(0.1);
  ASSERT_EQ(group.size(), 8u);
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_GT(group.conn(i).sender().snd_una(), 100)
        << "flow " << i << " stalled";
  }
  EXPECT_GT(group.total_acked(), 8 * 100);
}

TEST(LongLivedGroup, MeanAlphaAveragesSenders) {
  Dumbbell d(4);
  workload::LongLivedGroup group(d.net, d.senders, *d.sink, dctcp_cfg(),
                                 0.0, 1);
  d.net.sim().run_until(0.05);
  const double mean = group.mean_alpha();
  EXPECT_GT(mean, 0.0);
  EXPECT_LE(mean, 1.0);
  double manual = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    manual += group.conn(i).sender().alpha();
  }
  EXPECT_NEAR(mean, manual / 4.0, 1e-12);
}

TEST(IncastRunner, RunsAllRepetitionsPersistent) {
  core::TestbedConfig tb_cfg;
  tb_cfg.workers = 4;
  auto tb = core::build_testbed(tb_cfg);
  workload::IncastConfig wl;
  wl.bytes_per_worker = 16 * 1024;
  wl.repetitions = 7;
  workload::IncastRunner runner(*tb.net, tb.workers, *tb.aggregator,
                                dctcp_cfg(), wl);
  bool done = false;
  runner.set_on_done([&] { done = true; });
  runner.start(0.0);
  tb.net->sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(runner.queries_completed(), 7u);
  EXPECT_EQ(runner.completion_times().count(), 7u);
  EXPECT_EQ(runner.goodputs().size(), 7u);
  for (double g : runner.goodputs()) {
    EXPECT_GT(g, 0.0);
  }
}

TEST(IncastRunner, FreshConnectionsModeAlsoCompletes) {
  core::TestbedConfig tb_cfg;
  tb_cfg.workers = 4;
  auto tb = core::build_testbed(tb_cfg);
  workload::IncastConfig wl;
  wl.bytes_per_worker = 16 * 1024;
  wl.repetitions = 5;
  wl.mode = workload::IncastConnectionMode::kFreshPerQuery;
  workload::IncastRunner runner(*tb.net, tb.workers, *tb.aggregator,
                                dctcp_cfg(), wl);
  runner.start(0.0);
  tb.net->sim().run();
  EXPECT_EQ(runner.queries_completed(), 5u);
}

TEST(IncastRunner, PersistentWarmerThanFreshAfterFirstQuery) {
  // Persistent connections skip the per-query slow start, so later
  // queries complete no slower than the cold-start variant on average.
  auto run_mode = [&](workload::IncastConnectionMode mode) {
    core::TestbedConfig tb_cfg;
    tb_cfg.workers = 8;
    auto tb = core::build_testbed(tb_cfg);
    workload::IncastConfig wl;
    wl.bytes_per_worker = 64 * 1024;
    wl.repetitions = 6;
    wl.mode = mode;
    workload::IncastRunner runner(*tb.net, tb.workers, *tb.aggregator,
                                  dctcp_cfg(), wl);
    runner.start(0.0);
    tb.net->sim().run();
    return runner.completion_times().mean();
  };
  const double persistent =
      run_mode(workload::IncastConnectionMode::kPersistent);
  const double fresh =
      run_mode(workload::IncastConnectionMode::kFreshPerQuery);
  EXPECT_LE(persistent, fresh * 1.1);
}

TEST(IncastRunner, GoodputMatchesBytesOverCompletionTime) {
  core::TestbedConfig tb_cfg;
  tb_cfg.workers = 2;
  auto tb = core::build_testbed(tb_cfg);
  workload::IncastConfig wl;
  wl.bytes_per_worker = 32 * 1024;
  wl.repetitions = 1;
  workload::IncastRunner runner(*tb.net, tb.workers, *tb.aggregator,
                                dctcp_cfg(), wl);
  runner.start(0.0);
  tb.net->sim().run();
  ASSERT_EQ(runner.goodputs().size(), 1u);
  const double fct = runner.completion_times().mean();
  const double expected = 2.0 * 32 * 1024 * 8.0 / fct;
  EXPECT_NEAR(runner.goodputs()[0], expected, expected * 1e-9);
}

}  // namespace
}  // namespace dtdctcp
