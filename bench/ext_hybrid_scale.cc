// Extension: hybrid fluid/packet co-simulation scaling sweep.
//
// Fixed foreground (8-sender web-search Poisson mix at 0.5 load on a
// 1 Gbps bottleneck) while the number of long-lived background flows
// sweeps 10^2 -> 10^5, simulated two ways:
//   * packet  — every background flow is a real TCP connection
//               (cost grows with the flow count; swept to 10^4)
//   * fluid   — all background flows collapse into one
//               hybrid::FluidBackground aggregate (cost is O(1) in the
//               flow count; swept to 10^5)
// The table reports wall-clock per cell and the foreground FCT
// percentiles, plus the fluid/packet speedup and p99 ratio at the
// overlap points. Cells run serially (never through the parallel
// runner) so wall-clock comparisons are honest.
//
// Exports (into DTDCTCP_CSV_DIR, when set):
//   * ext_hybrid_scale.csv  — plot-ready CSV
//   * ext_hybrid_scale.json — bench::Report rows (p99_fct_s gated by
//     tools/bench_merge.py)
//
// DTDCTCP_HYBRID_GATE=1 hard-fails the bench unless the hybrid path is
// >= 10x faster than packet-only at 10^4 background flows (the
// acceptance floor; CI sets it).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workload/fct_workloads.h"

using namespace dtdctcp;

namespace {

constexpr std::size_t kBackgroundFlows[] = {100, 1000, 10000, 100000};
constexpr std::size_t kPacketMax = 10000;  ///< packet-only sweep ceiling
constexpr std::size_t kGateFlows = 10000;  ///< acceptance comparison point

struct Cell {
  workload::FctBackgroundMode mode{};
  std::size_t flows = 0;
  workload::FctWorkloadResult result;
  double wall_s = 0.0;
};

workload::FctWorkloadConfig cell_config(workload::FctBackgroundMode mode,
                                        std::size_t flows) {
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.scheme = workload::FctScheme::kDctcp;
  cfg.load = 0.5;
  cfg.duration = bench::scaled(0.2, 0.05);
  cfg.seed = 11;
  cfg.background_flows = flows;
  cfg.background_mode = mode;
  // Coarsen the aggregate's RK4 step to R0/50 (from the model default
  // R0/200): the averaged background system is smooth at this
  // resolution and the integration cost — the only hybrid cost that
  // grows with simulated time — drops 4x, keeping the wall-clock
  // advantage duration-independent.
  cfg.background_fluid_dt = cfg.background_rtt / 50.0;
  return cfg;
}

const char* mode_name(workload::FctBackgroundMode m) {
  return m == workload::FctBackgroundMode::kFluid ? "fluid" : "packet";
}

}  // namespace

int main() {
  bench::header("Extension",
                "Hybrid fluid-background scaling: wall-clock vs flow count");
  std::printf(
      "foreground: websearch Poisson mix, 8 senders, load 0.5 on 1 Gbps;\n"
      "background: N long-lived flows, packet-simulated (N <= 10^4) vs one\n"
      "fluid aggregate (src/hybrid), N = 10^2..10^5\n\n");

  std::vector<Cell> cells;
  for (const std::size_t flows : kBackgroundFlows) {
    for (const auto mode : {workload::FctBackgroundMode::kPacket,
                            workload::FctBackgroundMode::kFluid}) {
      if (mode == workload::FctBackgroundMode::kPacket && flows > kPacketMax) {
        continue;
      }
      Cell c;
      c.mode = mode;
      c.flows = flows;
      const auto t0 = std::chrono::steady_clock::now();
      c.result = workload::run_fct_workload(cell_config(mode, flows));
      c.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      std::fprintf(stderr, "  [hybrid] %-6s N=%-6zu %6.2fs wall\n",
                   mode_name(mode), flows, c.wall_s);
      cells.push_back(std::move(c));
    }
  }

  std::printf("%-7s %7s | %8s | %6s %6s | %9s %9s | %8s %8s\n", "mode",
              "bg_N", "wall_s", "start", "done", "p50_ms", "p99_ms",
              "q_pkts", "bg_share");
  std::vector<std::vector<double>> csv_rows;
  bench::Report report("ext_hybrid_scale");
  for (const Cell& c : cells) {
    std::printf("%-7s %7zu | %8.3f | %6zu %6zu | %9.3f %9.3f | %8.1f %8.3f\n",
                mode_name(c.mode), c.flows, c.wall_s, c.result.flows_started,
                c.result.flows_completed, c.result.fct_p50 * 1e3,
                c.result.fct_p99 * 1e3, c.result.queue_mean_pkts,
                c.result.bg_share_mean);
    csv_rows.push_back(
        {c.mode == workload::FctBackgroundMode::kFluid ? 1.0 : 0.0,
         static_cast<double>(c.flows), c.wall_s, c.result.fct_p50 * 1e3,
         c.result.fct_p99 * 1e3, c.result.queue_mean_pkts,
         c.result.bg_share_mean});
    report
        .row(std::string("hybrid/scale/") + mode_name(c.mode) + "/" +
             std::to_string(c.flows))
        .add("p99_fct_s", c.result.fct_p99)
        .add("mean_fct_s", c.result.fct_mean)
        .add("wall_seconds", c.wall_s)
        .add("flows", c.result.flows_completed);
  }

  // Overlap analysis: speedup and foreground-p99 agreement per N where
  // both modes ran.
  auto find = [&](workload::FctBackgroundMode m,
                  std::size_t flows) -> const Cell* {
    for (const Cell& c : cells) {
      if (c.mode == m && c.flows == flows) return &c;
    }
    return nullptr;
  };
  std::printf("\n%-7s | %9s | %14s\n", "bg_N", "speedup", "p99 fluid/pkt");
  double gate_speedup = 0.0;
  for (const std::size_t flows : kBackgroundFlows) {
    const Cell* pk = find(workload::FctBackgroundMode::kPacket, flows);
    const Cell* fl = find(workload::FctBackgroundMode::kFluid, flows);
    if (pk == nullptr || fl == nullptr) continue;
    const double speedup = fl->wall_s > 0.0 ? pk->wall_s / fl->wall_s : 0.0;
    const double ratio = pk->result.fct_p99 > 0.0
                             ? fl->result.fct_p99 / pk->result.fct_p99
                             : 0.0;
    if (flows == kGateFlows) gate_speedup = speedup;
    std::printf("%7zu | %8.1fx | %14.2f\n", flows, speedup, ratio);
  }

  bench::maybe_write_csv("ext_hybrid_scale",
                         {"fluid", "bg_flows", "wall_s", "p50_ms", "p99_ms",
                          "queue_pkts", "bg_share"},
                         csv_rows);
  report.write();

  bench::expectation(
      "Fluid-aggregate wall-clock stays near-flat as background flows sweep "
      "10^2 -> 10^5 while packet-only grows with the flow count; at the "
      "overlap points the foreground p99 FCT of the two modes stays within "
      "a small factor (the fluid aggregate reproduces the background's "
      "bandwidth pressure without per-flow state).");

  const char* gate = std::getenv("DTDCTCP_HYBRID_GATE");
  if (gate != nullptr && *gate == '1') {
    if (gate_speedup < 10.0) {
      std::fprintf(stderr,
                   "HYBRID GATE FAILED: fluid speedup at N=%zu is %.1fx "
                   "(floor: 10x)\n",
                   kGateFlows, gate_speedup);
      return 1;
    }
    std::fprintf(stderr, "hybrid gate ok: %.1fx speedup at N=%zu\n",
                 gate_speedup, kGateFlows);
  }
  return 0;
}
