// Extension: buffer-sizing sweep — how little switch buffer each
// scheme needs. The web-search FCT workload (PR-5 harness) runs with
// the bottleneck buffer shrunk from hundreds of packets (the deep
// per-port default) down to tens (commodity shared-memory territory),
// across drop-tail, DCTCP threshold, DT-DCTCP hysteresis, CoDel and
// PIE, plus DCTCP on a DT-managed shared pool of the same total size
// (per-port limit off, alpha = 1).
//
// The 6 schemes x 5 buffer depths grid runs on the parallel runner
// (DTDCTCP_JOBS); rows print from the ordered result vector, so stdout
// is byte-identical for any worker count.
//
// Exports (into DTDCTCP_CSV_DIR, when set):
//   * ext_buffer_sizing.csv  — plot-ready CSV
//   * ext_buffer_sizing.json — bench::Report rows carrying p99_fct_s per
//     cell, merged into BENCH_simcore by CI and gated by
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

constexpr std::uint64_t kBufSweepSeed = 13;

constexpr std::size_t kBufferPkts[] = {250, 120, 60, 30, 15};
constexpr std::size_t kSizes = 5;

// Row label + how to configure the cell. The last entry reuses the
// DCTCP marking but moves the byte budget from the port to a shared
// DT pool (alpha = 1, 2-packet guaranteed headroom per port).
struct SchemeSpec {
  const char* label;
  queue::MarkingRule scheme;
  bool shared_pool;
};
constexpr SchemeSpec kSchemeSpecs[] = {
    {"droptail", workload::FctScheme::kDropTail, false},
    {"dctcp", workload::FctScheme::kDctcp, false},
    {"dt-loop", workload::FctScheme::kDtLoop, false},
    {"codel", workload::FctScheme::kCodel, false},
    {"pie", workload::FctScheme::kPie, false},
    {"dctcp-pool", workload::FctScheme::kDctcp, true},
};
constexpr std::size_t kSchemes = 6;

workload::FctWorkloadConfig cell_config(std::size_t job) {
  const SchemeSpec& spec = kSchemeSpecs[job % kSchemes];
  const std::size_t buf = kBufferPkts[job / kSchemes];
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.scheme = spec.scheme;
  cfg.load = 0.6;
  cfg.duration = bench::scaled(1.0, 0.1);
  cfg.seed = derive_seed(kBufSweepSeed, job);
  if (spec.shared_pool) {
    cfg.buffer_pkts = 0;  // pool-only budget
    cfg.use_shared_pool = true;
    cfg.pool_capacity_pkts = buf;
    cfg.pool_alpha = 1.0;
    cfg.pool_headroom_pkts = 2;
  } else {
    cfg.buffer_pkts = buf;
  }
  return cfg;
}

}  // namespace

int main() {
  bench::header("Extension",
                "FCT vs switch buffer depth, per-port vs DT shared pool");
  std::printf("web-search mix, 8 senders -> 1 sink over 1 Gbps, load 0.6; "
              "buffer shrunk %zu -> %zu pkts\n\n",
              kBufferPkts[0], kBufferPkts[kSizes - 1]);

  constexpr std::size_t kJobs = kSizes * kSchemes;
  std::vector<workload::FctWorkloadConfig> cfgs(kJobs);
  for (std::size_t job = 0; job < kJobs; ++job) cfgs[job] = cell_config(job);

  const auto results = runner::sweep("bufsz", kJobs, [&](std::size_t job) {
    return workload::run_fct_workload(cfgs[job]);
  });

  std::printf("%-6s %-11s | %6s %6s | %9s %9s %9s | %5s %5s %8s %10s\n",
              "buf", "scheme", "start", "done", "mean_ms", "p50_ms", "p99_ms",
              "to", "drop", "marks", "pool_peak");
  std::vector<std::vector<double>> csv_rows;
  bench::Report report("ext_buffer_sizing");
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i > 0 && i % kSchemes == 0) std::printf("\n");
    const auto& r = results[i];
    const std::size_t buf = kBufferPkts[i / kSchemes];
    report
        .row(std::string("bufsz/websearch/") +
             kSchemeSpecs[i % kSchemes].label + "/" + std::to_string(buf))
        .add("p99_fct_s", r.fct_p99)
        .add("mean_fct_s", r.fct_mean)
        .add("flows", r.flows_completed);
    std::printf(
        "%-6zu %-11s | %6zu %6zu | %9.3f %9.3f %9.3f | %5llu %5llu %8llu "
        "%10llu\n",
        buf, kSchemeSpecs[i % kSchemes].label, r.flows_started,
        r.flows_completed, r.fct_mean * 1e3, r.fct_p50 * 1e3, r.fct_p99 * 1e3,
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.drops),
        static_cast<unsigned long long>(r.marks_seen),
        static_cast<unsigned long long>(r.pool_peak_bytes));
    csv_rows.push_back({static_cast<double>(buf),
                        static_cast<double>(i % kSchemes),
                        static_cast<double>(r.flows_completed),
                        r.fct_mean * 1e3, r.fct_p50 * 1e3, r.fct_p99 * 1e3,
                        r.queue_mean_pkts,
                        static_cast<double>(r.timeouts),
                        static_cast<double>(r.drops),
                        static_cast<double>(r.marks_seen),
                        static_cast<double>(r.pool_peak_bytes)});
  }

  bench::maybe_write_csv(
      "ext_buffer_sizing",
      {"buffer_pkts", "scheme", "flows", "mean_ms", "p50_ms", "p99_ms",
       "queue_pkts", "timeouts", "drops", "marks", "pool_peak_bytes"},
      csv_rows);
  report.write();

  bench::expectation(
      "With deep buffers every scheme completes the mix; as the buffer "
      "shrinks below the ~25-packet marking band, drop-tail (and to a "
      "lesser degree the delay AQMs) pay timeouts while the ECN threshold "
      "schemes degrade gracefully. The shared-pool DCTCP column matches "
      "per-port DCTCP at equal total bytes and holds its p99 at the "
      "smallest sizes because the DT pool lends idle ports' budget to the "
      "hot sink port.");
  return 0;
}
