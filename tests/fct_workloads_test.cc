// Tests for the FCT workload harness: determinism of the parallel
// sweep (byte-identical formatted rows for any worker count), flow
// lifecycle invariants under load, and D2TCP deadline accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/runner.h"
#include "tcp/flow_metrics.h"
#include "util/rng.h"
#include "workload/fct_workloads.h"
#include "workload/poisson_flows.h"

namespace dtdctcp {
namespace {

std::vector<workload::FctWorkloadConfig> grid_configs() {
  const workload::FctWorkloadKind kinds[] = {
      workload::FctWorkloadKind::kWebSearch,
      workload::FctWorkloadKind::kDataMining,
      workload::FctWorkloadKind::kQueryBackground,
  };
  const queue::MarkingRule schemes[] = {
      workload::FctScheme::kDctcp,
      workload::FctScheme::kDtLoop,
      workload::FctScheme::kDtBand,
  };
  std::vector<workload::FctWorkloadConfig> cfgs;
  for (std::size_t job = 0; job < 9; ++job) {
    workload::FctWorkloadConfig cfg;
    cfg.kind = kinds[job / 3];
    cfg.scheme = schemes[job % 3];
    cfg.duration = 0.08;  // short but enough for a handful of flows
    cfg.seed = derive_seed(7, job);
    cfgs.push_back(cfg);
  }
  return cfgs;
}

std::vector<std::string> run_grid(std::size_t workers) {
  const auto cfgs = grid_configs();
  runner::RunnerOptions opts;
  opts.jobs = workers;
  const auto results = runner::run_jobs(
      cfgs.size(),
      [&](std::size_t job) {
        return workload::run_fct_workload(cfgs[job]);
      },
      opts);
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    rows.push_back(workload::format_fct_row(cfgs[i], results[i]));
  }
  return rows;
}

// The guarantee the bench's stdout relies on: the formatted table rows
// — everything the user sees — are byte-identical between the serial
// path and a parallel run.
TEST(FctWorkloads, SerialAndParallelRowsAreByteIdentical) {
  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "row " << i << " diverged";
  }
  // And the runs did real work: at least one row saw completed flows.
  bool any = false;
  for (const auto& row : serial) {
    if (row.find("|      0      0 |") == std::string::npos) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(FctWorkloads, ResultAndRegistryAgree) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kQueryBackground;
  cfg.scheme = workload::FctScheme::kDtLoop;
  cfg.duration = 0.3;
  cfg.seed = 11;
  auto r = workload::run_fct_workload(cfg);
  ASSERT_GT(r.flows_completed, 0u);
  EXPECT_EQ(r.flows_started, r.flows_completed);  // open window closed
  EXPECT_GT(r.fct_mean, 0.0);
  EXPECT_GE(r.fct_p99, r.fct_p50);
  EXPECT_GE(r.fct_max, r.fct_p99);
  // The registry carried inside the result mirrors the scalar summary.
  const std::string prefix = "fct.querybg.dt-loop";
  EXPECT_EQ(r.metrics.counter(prefix + ".flows").value(),
            r.flows_completed);
  EXPECT_EQ(r.metrics.counter(prefix + ".timeouts").value(), r.timeouts);
  EXPECT_EQ(r.metrics.counter(prefix + ".marks_seen").value(),
            r.marks_seen);
  EXPECT_DOUBLE_EQ(r.metrics.gauge(prefix + ".fct.p99").value(), r.fct_p99);
  EXPECT_EQ(r.metrics.histogram(prefix + ".fct_hist").count(),
            r.flows_completed);
  // Switch-side accounting made it in too.
  EXPECT_GT(r.metrics.counter(prefix + ".switch.sent_packets").value(), 0u);
  EXPECT_GT(r.metrics.gauge(prefix + ".queue.pkts.max").value(), 0.0);
  // DCTCP senders under hysteresis marking saw at least one ECN echo.
  EXPECT_GT(r.marks_seen, 0u);
}

TEST(FctWorkloads, LifecycleInvariantsUnderLoad) {
  // Drive the collector directly so the per-flow records are visible.
  workload::FctWorkloadConfig cfg;
  auto pr = workload::run_fct_workload(cfg);  // smoke the default config
  ASSERT_GT(pr.flows_completed, 0u);

  sim::Network net;
  const sim::Star star = sim::build_star(
      net, {.senders = 4},
      workload::fct_marking(workload::FctScheme::kDctcp, 250));

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;
  workload::PoissonConfig pcfg;
  pcfg.sizes = workload::query_background_sizes();
  pcfg.arrivals_per_sec = 400.0;
  pcfg.duration = 0.2;
  pcfg.seed = 3;
  tcp::FlowMetricsCollector col;
  workload::PoissonFlowGenerator gen(net, star.senders, {star.sink}, tcp_cfg,
                                     pcfg);
  gen.set_collector(&col);
  gen.start(0.0);
  net.sim().run();

  ASSERT_GT(col.flows(), 0u);
  EXPECT_EQ(col.flows(), gen.flows_completed());
  for (const auto& r : col.records()) {
    EXPECT_GT(r.size_segments, 0);
    EXPECT_LT(r.start, r.first_byte) << "flow " << r.flow;
    EXPECT_LE(r.first_byte, r.completion) << "flow " << r.flow;
    EXPECT_GT(r.fct(), 0.0);
  }
}

// No-op recovery: wiring the shared pool in with unlimited capacity
// (capacity 0) must not perturb a single byte of the result — the pool
// admits everything, so the simulation is event-for-event identical to
// an unpooled run.
TEST(FctWorkloads, UnlimitedPoolIsByteIdenticalToNoPool) {
  workload::FctWorkloadConfig base;
  base.kind = workload::FctWorkloadKind::kWebSearch;
  base.scheme = workload::FctScheme::kDctcp;
  base.duration = 0.1;
  base.seed = 21;
  const auto plain = workload::run_fct_workload(base);

  workload::FctWorkloadConfig pooled = base;
  pooled.use_shared_pool = true;
  pooled.pool_capacity_pkts = 0;  // unlimited
  pooled.pool_alpha = 1.0;
  pooled.pool_headroom_pkts = 2;
  const auto with_pool = workload::run_fct_workload(pooled);

  ASSERT_GT(plain.flows_completed, 0u);
  EXPECT_EQ(workload::format_fct_row(base, plain),
            workload::format_fct_row(base, with_pool));
  EXPECT_EQ(plain.flows_completed, with_pool.flows_completed);
  EXPECT_DOUBLE_EQ(plain.fct_mean, with_pool.fct_mean);
  EXPECT_DOUBLE_EQ(plain.fct_p99, with_pool.fct_p99);
  EXPECT_EQ(plain.timeouts, with_pool.timeouts);
  EXPECT_EQ(plain.marks_seen, with_pool.marks_seen);
  // The pooled run did track occupancy even though it never rejected.
  EXPECT_GT(with_pool.pool_peak_bytes, 0u);
  EXPECT_EQ(plain.pool_peak_bytes, 0u);
}

// A finite pool under the same traffic actually bites: peak occupancy
// is pinned at the capacity and the workload still completes flows.
TEST(FctWorkloads, FinitePoolCapsOccupancyAndStillCompletes) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.scheme = workload::FctScheme::kDctcp;
  cfg.buffer_pkts = 0;  // pool is the only limit
  cfg.duration = 0.1;
  cfg.seed = 21;
  cfg.use_shared_pool = true;
  cfg.pool_capacity_pkts = 40;
  cfg.pool_alpha = 1.0;
  cfg.pool_headroom_pkts = 2;
  const auto r = workload::run_fct_workload(cfg);
  ASSERT_GT(r.flows_completed, 0u);
  EXPECT_GT(r.pool_peak_bytes, 0u);
  EXPECT_LE(r.pool_peak_bytes, 40u * 1500u);
}

// Packet-background hosts' ACK-return ports charge the pool too, so the
// headroom clamp must count them: 8 senders + 4 background hosts + the
// sink share 18 packets, so each port keeps 1 packet of headroom and
// the bottleneck can grow past its reserve into the shared region.
TEST(FctWorkloads, PoolHeadroomClampCountsBackgroundHostPorts) {
  workload::FctWorkloadConfig cfg;
  cfg.senders = 8;
  cfg.background_flows = 4;
  cfg.background_mode = workload::FctBackgroundMode::kPacket;
  cfg.use_shared_pool = true;
  cfg.pool_capacity_pkts = 18;
  cfg.pool_headroom_pkts = 2;
  cfg.pool_alpha = 1.0;
  cfg.duration = 0.05;
  cfg.seed = 3;
  const auto r = workload::run_fct_workload(cfg);
  EXPECT_GT(r.queue_max_pkts, static_cast<double>(cfg.pool_headroom_pkts));
}

// The bottleneck runs exactly the rule in FctWorkloadConfig::scheme,
// thresholds included, and the fluid background aggregate runs the same
// thresholds in packets — not a fixed K per kind.
TEST(FctWorkloads, SchemeThresholdsReachBottleneckAndFluidAggregate) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.duration = 0.2;
  cfg.seed = 11;
  cfg.background_flows = 20;
  cfg.background_mode = workload::FctBackgroundMode::kFluid;
  cfg.scheme = *queue::MarkingRule::parse("dctcp:5");
  const auto low = workload::run_fct_workload(cfg);
  cfg.scheme = *queue::MarkingRule::parse("dctcp:80");
  const auto high = workload::run_fct_workload(cfg);
  ASSERT_GT(low.flows_completed, 0u);
  EXPECT_NE(low.marked_pkts, high.marked_pkts);
  // The aggregate's queue settles around its own K.
  EXPECT_LT(low.bg_queue_mean_pkts, high.bg_queue_mean_pkts);

  for (const char* label : {"dctcp:5", "dctcp:80", "dt:30,50",
                            "dt:30,50,variant=half-band", "red:20,40"}) {
    const auto rule = *queue::MarkingRule::parse(label);
    EXPECT_EQ(workload::fct_fluid_marking(rule), rule) << label;
  }
  EXPECT_EQ(workload::fct_fluid_marking(
                *queue::MarkingRule::parse("dt:30000,45000,unit=bytes")),
            queue::MarkingRule::dt_dctcp(20.0, 30.0));
  // Rules the fluid model cannot express fall back to DCTCP's K = 20.
  EXPECT_EQ(workload::fct_fluid_marking(workload::FctScheme::kCodel),
            workload::FctScheme::kDctcp);
}

TEST(FctWorkloads, DeadlineAccountingWithD2tcp) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kQueryBackground;
  cfg.duration = 0.3;
  cfg.cc_mode = tcp::CcMode::kD2tcp;
  cfg.flow_deadline = 0.005;  // tight: large flows will miss it
  cfg.seed = 13;
  auto r = workload::run_fct_workload(cfg);
  ASSERT_GT(r.flows_completed, 0u);
  // Every flow carried a deadline, and the verdicts partition them.
  EXPECT_EQ(r.deadline_flows, r.flows_completed);
  EXPECT_LE(r.deadline_missed, r.deadline_flows);
  EXPECT_GT(r.deadline_missed, 0u);  // 700-segment flows cannot make 5 ms
  EXPECT_LT(r.deadline_missed, r.deadline_flows);  // 2-segment flows do
}

}  // namespace
}  // namespace dtdctcp
