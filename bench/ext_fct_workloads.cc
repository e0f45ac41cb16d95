// Extension: flow-completion times across realistic datacenter
// workloads — web-search (DCTCP), data-mining (VL2), and this paper's
// query/background mix — on a many-to-one bottleneck, for DCTCP
// threshold marking vs both DT-DCTCP hysteresis readings.
//
// The 3 workloads x 3 schemes grid runs on the parallel runner
// (DTDCTCP_JOBS); rows are printed from the ordered result vector, so
// stdout is byte-identical for any worker count (pinned by
// tests/fct_workloads_test.cc, which shares workload::format_fct_row).
//
// Exports (into DTDCTCP_CSV_DIR, when set):
//   * ext_fct_workloads.csv — plot-ready CSV
//   * one <run>.metrics.{json,csv} registry dump per cell
//   * ext_fct_workloads.json — bench::Report rows carrying p99_fct_s /
//     mean_fct_s per cell, merged into BENCH_simcore by CI and gated by
//     tools/bench_merge.py (p99 FCT must match exactly)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "runner/runner.h"
#include "util/rng.h"
#include "workload/fct_workloads.h"

using namespace dtdctcp;

namespace {

constexpr std::uint64_t kFctSweepSeed = 7;

const workload::FctWorkloadKind kKinds[] = {
    workload::FctWorkloadKind::kWebSearch,
    workload::FctWorkloadKind::kDataMining,
    workload::FctWorkloadKind::kQueryBackground,
};
const queue::MarkingRule kSchemes[] = {
    workload::FctScheme::kDctcp,
    workload::FctScheme::kDtLoop,
    workload::FctScheme::kDtBand,
};

workload::FctWorkloadConfig cell_config(std::size_t job) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = kKinds[job / 3];
  cfg.scheme = kSchemes[job % 3];
  cfg.load = 0.6;
  cfg.duration = bench::scaled(2.0, 0.1);
  cfg.seed = derive_seed(kFctSweepSeed, job);
  return cfg;
}

}  // namespace

int main() {
  bench::header("Extension",
                "FCT across datacenter workloads, DCTCP vs DT-DCTCP");
  std::printf("8 senders -> 1 sink over a 1 Gbps bottleneck, load 0.6, "
              "buffer 250 pkts;\nmarking K=20 (dctcp) vs K1=15/K2=25 "
              "hysteresis (dt-loop trend-peak, dt-band half-band)\n\n");

  constexpr std::size_t kJobs = 9;  // 3 workloads x 3 schemes
  std::vector<workload::FctWorkloadConfig> cfgs(kJobs);
  for (std::size_t job = 0; job < kJobs; ++job) cfgs[job] = cell_config(job);

  const auto results = runner::sweep("fctwl", kJobs, [&](std::size_t job) {
    return workload::run_fct_workload(cfgs[job]);
  });

  std::printf("%s\n", workload::fct_row_header().c_str());
  std::vector<std::vector<double>> csv_rows;
  bench::Report report("ext_fct_workloads");
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i > 0 && i % 3 == 0) std::printf("\n");
    std::printf("%s\n", workload::format_fct_row(cfgs[i], results[i]).c_str());
    report
        .row(std::string("fct/dumbbell/") +
             workload::fct_workload_name(cfgs[i].kind) + "/" +
             workload::fct_scheme_name(cfgs[i].scheme))
        .add("p99_fct_s", results[i].fct_p99)
        .add("mean_fct_s", results[i].fct_mean)
        .add("flows", results[i].flows_completed);
    csv_rows.push_back({static_cast<double>(i / 3),
                        static_cast<double>(i % 3),
                        static_cast<double>(results[i].flows_completed),
                        results[i].fct_mean * 1e3, results[i].fct_p50 * 1e3,
                        results[i].fct_p99 * 1e3, results[i].small_p99 * 1e3,
                        results[i].large_mean * 1e3,
                        results[i].queue_mean_pkts,
                        static_cast<double>(results[i].timeouts),
                        static_cast<double>(results[i].drops),
                        static_cast<double>(results[i].marks_seen)});
    // Per-cell registry dump (no-op unless DTDCTCP_CSV_DIR is set).
    results[i].metrics.maybe_export(
        std::string("ext_fct_workloads.") +
        workload::fct_workload_name(cfgs[i].kind) + "." +
        workload::fct_scheme_name(cfgs[i].scheme));
  }

  bench::maybe_write_csv(
      "ext_fct_workloads",
      {"workload", "scheme", "flows", "mean_ms", "p50_ms", "p99_ms",
       "small_p99_ms", "large_mean_ms", "queue_pkts", "timeouts", "drops",
       "marks"},
      csv_rows);
  report.write();

  bench::expectation(
      "Median and p99 FCT stay in the low milliseconds for the short-flow "
      "mass of every workload; the DT-DCTCP hysteresis schemes hold mean "
      "queue depth near the DCTCP level (the marking band straddles K=20) "
      "without inflating p99 FCT, and heavier-tailed mixes (data-mining) "
      "show the largest large-flow completion times.");
  return 0;
}
