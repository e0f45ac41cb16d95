// Extension: flow-completion times vs offered load on a leaf-spine
// fabric — the canonical datacenter transport benchmark (DCTCP-paper
// style), run fabric-wide with DCTCP vs DT-DCTCP marking. A Poisson
// process of web-search-like flows (synthetic heavy-tailed mix; the
// original traces are proprietary) arrives between random host pairs.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "queue/factory.h"
#include "runner/runner.h"
#include "sim/fabric.h"
#include "workload/fct_workloads.h"
#include "workload/poisson_flows.h"

using namespace dtdctcp;

namespace {

struct Result {
  double small_mean_ms, small_p99_ms, large_mean_ms;
  std::size_t flows;
  std::uint64_t timeouts;
};

Result run_load(double load, bool dt) {
  sim::LeafSpineConfig fab_cfg;
  fab_cfg.spines = 2;
  fab_cfg.leaves = 4;
  fab_cfg.hosts_per_leaf = 4;
  fab_cfg.host_link_bps = units::gbps(1);
  fab_cfg.fabric_link_bps = units::gbps(4);
  const auto mark = (dt ? workload::FctScheme::kDtLoop
                        : workload::FctScheme::kDctcp).queue_factory(0, 250);
  auto fab = sim::build_leaf_spine(fab_cfg, mark);

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = tcp::CcMode::kDctcp;
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;

  workload::PoissonConfig cfg;
  cfg.sizes = workload::FlowSizeDist::websearch();
  // Offered load relative to half the aggregate host capacity (senders
  // and receivers drawn from the same pool).
  const double capacity =
      static_cast<double>(fab.hosts.size()) * fab_cfg.host_link_bps / 2.0;
  cfg.arrivals_per_sec =
      workload::arrival_rate_for_load(load, capacity, cfg.sizes, 1500);
  cfg.duration = bench::scaled(1.0, 0.2);
  cfg.seed = 11;

  tcp::FlowMetricsCollector collector(cfg.small_cutoff_segments,
                                      cfg.large_cutoff_segments);
  workload::PoissonFlowGenerator gen(*fab.net, fab.hosts, fab.hosts,
                                     tcp_cfg, cfg);
  gen.set_collector(&collector);
  gen.start(0.0);
  fab.net->sim().run();

  Result r;
  r.small_mean_ms = collector.fct_small().mean() * 1e3;
  r.small_p99_ms = collector.fct_small().p99() * 1e3;
  r.large_mean_ms = collector.fct_large().mean() * 1e3;
  r.flows = gen.flows_completed();
  r.timeouts = collector.timeouts();
  return r;
}

}  // namespace

int main() {
  bench::header("Extension",
                "FCT vs load, leaf-spine fabric, DCTCP vs DT-DCTCP");
  std::printf("2 spines x 4 leaves x 4 hosts, 1 Gbps hosts / 4 Gbps "
              "fabric, web-search-like sizes, K=20 vs K1=15/K2=25 pkts\n\n");

  std::printf("%6s | %11s %11s %11s %6s | %11s %11s %11s %6s\n", "load",
              "DCsm_mean", "DCsm_p99", "DClg_mean", "DC_to", "DTsm_mean",
              "DTsm_p99", "DTlg_mean", "DT_to");
  std::printf("%6s | %11s %11s %11s %6s | %11s %11s %11s %6s\n", "",
              "(ms)", "(ms)", "(ms)", "", "(ms)", "(ms)", "(ms)", "");
  const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8};
  // One job per (load, marking): even index DCTCP, odd DT-DCTCP.
  const auto results =
      runner::sweep("fct", loads.size() * 2, [&](std::size_t job) {
        return run_load(loads[job / 2], /*dt=*/job % 2 == 1);
      });

  for (std::size_t i = 0; i < loads.size(); ++i) {
    const auto& dc = results[2 * i];
    const auto& dt = results[2 * i + 1];
    std::printf("%6.1f | %11.2f %11.2f %11.1f %6llu | %11.2f %11.2f "
                "%11.1f %6llu\n",
                loads[i], dc.small_mean_ms, dc.small_p99_ms,
                dc.large_mean_ms,
                static_cast<unsigned long long>(dc.timeouts),
                dt.small_mean_ms, dt.small_p99_ms, dt.large_mean_ms,
                static_cast<unsigned long long>(dt.timeouts));
  }

  bench::expectation(
      "Small-flow completion times stay in the low milliseconds across "
      "loads for both markings (the DCTCP property); DT-DCTCP's earlier "
      "marking start keeps small-flow tails (p99) at or below DCTCP's as "
      "load grows.");
  return 0;
}
