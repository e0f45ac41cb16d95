// Figure 14: Incast impairment on the paper's testbed topology. Each of
// n workers sends 64 KB to the aggregator simultaneously; 100
// repetitions per point over persistent connections. Paper: DCTCP's
// goodput collapses at 32 synchronized flows; DT-DCTCP maintains high
// goodput until 37 — the collapse is postponed by ~5 flows.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/incast_experiment.h"

using namespace dtdctcp;

namespace {

core::IncastExperimentConfig base_config(std::size_t flows, bool dt) {
  core::IncastExperimentConfig cfg;
  cfg.flows = flows;
  cfg.bytes_per_worker = 64 * 1024;
  cfg.repetitions = bench::scaled_count(100, 5);
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.min_rto = 0.2;  // the 200 ms min-RTO of the paper-era stacks
  cfg.tcp.init_rto = 0.2;
  cfg.testbed.marking = dt ? core::kTestbedDtDctcp : core::kTestbedDctcp;
  return cfg;
}

}  // namespace

int main() {
  bench::header("Figure 14", "Incast goodput collapse, DCTCP vs DT-DCTCP");
  std::printf(
      "testbed: 1 Gbps links, 128 KB bottleneck buffer, K=32 KB vs "
      "K1=28/K2=34 KB (paper's byte thresholds, labels normalized — see "
      "DESIGN.md), 64 KB/worker, %zu repetitions, min-RTO 200 ms\n\n",
      bench::scaled_count(100, 5));

  std::printf("%5s %14s %14s %10s %10s\n", "n", "DC_Mbps", "DT_Mbps",
              "DC_to", "DT_to");
  int dc_collapse = -1, dt_collapse = -1;
  for (std::size_t n = 4; n <= 48; n += 2) {
    const auto rdc = core::run_incast(base_config(n, false));
    const auto rdt = core::run_incast(base_config(n, true));
    std::printf("%5zu %14.1f %14.1f %10llu %10llu\n", n,
                rdc.goodput_mean_bps / 1e6, rdt.goodput_mean_bps / 1e6,
                static_cast<unsigned long long>(rdc.timeouts),
                static_cast<unsigned long long>(rdt.timeouts));
    if (dc_collapse < 0 && rdc.goodput_mean_bps < 0.5 * units::gbps(1)) {
      dc_collapse = static_cast<int>(n);
    }
    if (dt_collapse < 0 && rdt.goodput_mean_bps < 0.5 * units::gbps(1)) {
      dt_collapse = static_cast<int>(n);
    }
    std::fflush(stdout);
  }

  std::printf("\ncollapse (goodput < 500 Mbps): DCTCP at n=%d, DT-DCTCP at "
              "n=%d (paper: 32 and 37)\n",
              dc_collapse, dt_collapse);
  bench::expectation(
      "Both protocols sustain near-1 Gbps goodput at small n, then "
      "collapse to ~min-RTO-dominated goodput; DT-DCTCP's collapse point "
      "comes at a higher flow count than DCTCP's.");
  return 0;
}
