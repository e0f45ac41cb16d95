// Leaf-spine datacenter workload: Poisson arrivals of web-search-like
// flows over an ECMP fabric, DT-DCTCP marking fabric-wide, with SACK
// and pacing toggled from the command line.
//
//   $ ./build/examples/leafspine_workload [load] [--sack] [--pacing]
#include <cstdio>
#include <cstring>
#include <cstdlib>

#include "core/dtdctcp.h"
#include "workload/poisson_flows.h"

using namespace dtdctcp;

int main(int argc, char** argv) {
  double load = 0.5;
  bool sack = false;
  bool pacing = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sack") == 0) {
      sack = true;
    } else if (std::strcmp(argv[i], "--pacing") == 0) {
      pacing = true;
    } else {
      load = std::atof(argv[i]);
    }
  }

  sim::LeafSpineConfig fab_cfg;
  fab_cfg.spines = 2;
  fab_cfg.leaves = 4;
  fab_cfg.hosts_per_leaf = 4;
  fab_cfg.host_link_bps = units::gbps(1);
  fab_cfg.fabric_link_bps = units::gbps(4);
  auto fab = sim::build_leaf_spine(
      fab_cfg, queue::MarkingRule::dt_dctcp(15.0, 25.0).queue_factory(0, 250));

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = tcp::CcMode::kDctcp;
  tcp_cfg.sack_enabled = sack;
  tcp_cfg.pacing = pacing;
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;

  workload::PoissonConfig wl;
  wl.sizes = workload::FlowSizeDist::websearch();
  const double capacity =
      static_cast<double>(fab.hosts.size()) * fab_cfg.host_link_bps / 2.0;
  wl.arrivals_per_sec =
      workload::arrival_rate_for_load(load, capacity, wl.sizes, 1500);
  wl.duration = 1.0;

  std::printf("leaf-spine 2x4x4, DT-DCTCP(15,25) fabric-wide, load %.0f%%, "
              "sack=%s pacing=%s\n",
              load * 100.0, sack ? "on" : "off", pacing ? "on" : "off");
  std::printf("offered: %.0f flows/s (mean size %.0f segments)\n",
              wl.arrivals_per_sec, wl.sizes.mean_segments());

  tcp::FlowMetricsCollector collector(wl.small_cutoff_segments,
                                      wl.large_cutoff_segments);
  workload::PoissonFlowGenerator gen(*fab.net, fab.hosts, fab.hosts,
                                     tcp_cfg, wl);
  gen.set_collector(&collector);
  gen.start(0.0);
  fab.net->sim().run();

  std::printf("\nflows: %zu started, %zu completed, %llu timeouts\n",
              gen.flows_started(), gen.flows_completed(),
              static_cast<unsigned long long>(collector.timeouts()));
  std::printf("%-12s %10s %10s %10s %10s\n", "bucket", "count", "mean_ms",
              "p99_ms", "max_ms");
  auto row = [](const char* name, stats::PercentileTracker& t) {
    std::printf("%-12s %10zu %10.2f %10.2f %10.2f\n", name, t.count(),
                t.mean() * 1e3, t.p99() * 1e3, t.max() * 1e3);
  };
  row("small", collector.fct_small());
  row("medium", collector.fct_medium());
  row("large", collector.fct_large());
  row("all", collector.fct_all());
  return 0;
}
