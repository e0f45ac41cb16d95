// Extension: fat-tree fabric FCT table — the k=4 cross-pod permutation
// workload under the conditions the fabric layer exists to model:
//
//   * balanced vs forced-polarized ECMP (same fabric, same flows — the
//     p99 FCT gap is the cost of correlated per-tier hashing);
//   * a mid-run edge-agg link failure with recovery (reroute + drained
//     backlog) against the failure-free baseline;
//   * 2-class strict-priority and WRR ports on every switch egress.
//
// Also pins the fabric determinism guarantees at bench scale: the
// 1-shard parsim run must reproduce the serial digest bit-for-bit and
// the 2-shard run must be run-to-run identical.
//
// Exports (into DTDCTCP_CSV_DIR, when set):
//   * ext_fabric_fct.csv  — plot-ready CSV (scenario vs FCT stats)
//   * ext_fabric_fct.json — bench::Report rows carrying p99_fct_s per
//     scenario, merged into BENCH_simcore by CI and gated by
//     tools/bench_merge.py (any change fails)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "parsim/fabric.h"
#include "util/units.h"

using namespace dtdctcp;

namespace {

struct Row {
  std::string name;
  parsim::FabricResult r;
};

}  // namespace

int main() {
  bench::header("ext_fabric_fct",
                "k=4 fat-tree permutation FCT: ECMP quality, link "
                "failure, priority classes");

  parsim::FabricConfig base;
  base.topology = parsim::FabricTopology::kFatTree;
  base.fat_tree.k = 4;
  base.fat_tree.ecmp = sim::EcmpMode::kBalanced;
  base.fat_tree.ecmp_seed = 11;
  // Congested core tier: a 2:1 oversubscribed edge (4 hosts per edge)
  // with 10G hosts over 10G agg-core uplinks makes the core links the
  // bottleneck of the cross-pod permutation — the regime where ECMP
  // quality, reroutes, and scheduling actually show up. A polarized
  // fabric runs the same demand over half the uplinks.
  base.fat_tree.hosts_per_edge = 4;
  base.fat_tree.agg_core_bps = units::gbps(10);
  // Datacenter-scale RTO: with the paper-era 200 ms min-RTO a single
  // slow-start loss dominates every percentile and the table measures
  // timeout luck instead of queueing.
  base.tcp.min_rto = 2e-3;
  base.tcp.init_rto = 2e-3;
  base.segments_per_flow =
      static_cast<std::int64_t>(bench::scaled(400.0, 80.0));
  base.seed = 23;

  std::printf("fabric: k=%zu fat-tree (%zu hosts, %zu fabric links), "
              "%lld segments/flow, permutation across pods\n",
              base.fat_tree.k, base.fat_tree.total_hosts(),
              base.fat_tree.total_fabric_links(),
              static_cast<long long>(base.segments_per_flow));

  std::vector<Row> rows;
  const auto run = [&rows](const std::string& name,
                           const parsim::FabricConfig& fc) {
    Row row;
    row.name = name;
    row.r = parsim::run_fabric(fc);
    rows.push_back(std::move(row));
    return rows.back().r;
  };

  run("k4_balanced", base);

  {
    parsim::FabricConfig fc = base;
    fc.fat_tree.ecmp = sim::EcmpMode::kPolarized;
    run("k4_polarized", fc);
  }
  {
    parsim::FabricConfig fc = base;
    // Link 16 down mid-run, recovered later: reroute cost +
    // drained-backlog retransmissions. Links are numbered pod by pod
    // (r*r edge-agg, then r*r agg-core), so in a k=4 fabric this is
    // pod 2's first edge-agg link, p2_edge0 <-> p2_agg0.
    // 300us lands inside the transfer at every bench scale >= 0.2.
    fc.link_events.push_back({300e-6, 16, false});
    fc.link_events.push_back({1300e-6, 16, true});
    run("k4_linkfail", fc);
  }
  {
    parsim::FabricConfig fc = base;
    fc.priority_classes = 2;
    fc.sched_policy = queue::SchedPolicy::kStrictPriority;
    run("k4_prio2_strict", fc);
  }
  {
    parsim::FabricConfig fc = base;
    fc.priority_classes = 2;
    fc.sched_policy = queue::SchedPolicy::kWrr;
    fc.wrr_weights = {3, 1};
    run("k4_prio2_wrr31", fc);
  }

  bench::section("FCT by scenario");
  std::printf("%16s %7s %10s %12s %12s %10s %10s %10s\n", "scenario", "flows",
              "completed", "mean_fct_ms", "p99_fct_ms", "max_fct_ms", "drops",
              "down_drops");
  bool ok = true;
  std::vector<std::vector<double>> csv_rows;
  bench::Report report("ext_fabric_fct");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const parsim::FabricResult& r = rows[i].r;
    const double mean_fct =
        r.completed > 0 ? r.sum_fct / static_cast<double>(r.completed) : 0.0;
    std::printf("%16s %7llu %10llu %12.3f %12.3f %10.3f %10llu %10llu\n",
                rows[i].name.c_str(),
                static_cast<unsigned long long>(r.flows),
                static_cast<unsigned long long>(r.completed), mean_fct * 1e3,
                r.p99_fct * 1e3, r.max_fct * 1e3,
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.link_down_drops));
    if (r.completed != r.flows) ok = false;
    csv_rows.push_back({static_cast<double>(i), static_cast<double>(r.flows),
                        mean_fct, r.p99_fct, r.max_fct,
                        static_cast<double>(r.drops),
                        static_cast<double>(r.link_down_drops)});
    report.row("fabric/fct/" + rows[i].name)
        .add("p99_fct_s", r.p99_fct)
        .add("flows", r.flows)
        .add("drops", r.drops);
  }

  bench::section("deltas");
  const double p99_bal = rows[0].r.p99_fct;
  const double p99_pol = rows[1].r.p99_fct;
  const double p99_fail = rows[2].r.p99_fct;
  std::printf("polarized / balanced p99 : %.2fx\n",
              p99_bal > 0.0 ? p99_pol / p99_bal : 0.0);
  std::printf("linkfail  / balanced p99 : %.2fx\n",
              p99_bal > 0.0 ? p99_fail / p99_bal : 0.0);

  bench::section("determinism pins");
  {
    parsim::FabricConfig fc = base;
    fc.shards = 1;
    const parsim::FabricResult one = parsim::run_fabric(fc);
    const bool identical = one.digest == rows[0].r.digest;
    std::printf("serial digest          : %016llx\n",
                static_cast<unsigned long long>(rows[0].r.digest));
    std::printf("1-shard digest         : %016llx  (%s)\n",
                static_cast<unsigned long long>(one.digest),
                identical ? "bit-identical, ok" : "MISMATCH");
    if (!identical || !one.ledger_ok) ok = false;
  }
  {
    parsim::FabricConfig fc = base;
    fc.shards = 2;
    const parsim::FabricResult a = parsim::run_fabric(fc);
    const parsim::FabricResult b = parsim::run_fabric(fc);
    const bool stable = a.digest == b.digest;
    std::printf("2-shard repeat digest  : %016llx  (%s)\n",
                static_cast<unsigned long long>(a.digest),
                stable ? "run-to-run identical, ok" : "NONDETERMINISTIC");
    if (!stable || !a.ledger_ok) ok = false;
  }

  bench::maybe_write_csv("ext_fabric_fct",
                         {"scenario", "flows", "mean_fct_s", "p99_fct_s",
                          "max_fct_s", "drops", "link_down_drops"},
                         csv_rows);
  report.write();

  bench::expectation(
      "polarized ECMP inflates p99 FCT well above the balanced fabric "
      "(each agg funnels onto one core uplink); the transient link "
      "failure costs less than polarization but stays above baseline; "
      "priority rows complete with high classes unharmed; digests "
      "pinned as printed above.");
  return ok ? 0 : 1;
}
