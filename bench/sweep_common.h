// The N-flow dumbbell sweep shared by the Fig. 10 / 11 / 12 harnesses.
//
// Configuration mirrors the paper's §VI-A simulation: N long-lived
// flows, one 10 Gbps bottleneck, 100 us propagation RTT, K = 40 packets
// (DCTCP) vs K1 = 30 / K2 = 50 (DT-DCTCP), g = 1/16, all flows starting
// together. One documented addition: the switch port buffer is finite
// (100 packets = 150 KB); the paper does not state its ns-2 buffer
// size, and with an infinite buffer the system settles into a static
// congested equilibrium instead of the oscillation of Fig. 1 (see
// EXPERIMENTS.md).
#pragma once

#include <vector>

#include "bench/bench_common.h"
#include "core/dumbbell.h"
#include "runner/runner.h"
#include "util/rng.h"

namespace dtdctcp::bench {

struct SweepPoint {
  std::size_t flows = 0;
  core::DumbbellResult dc;       ///< DCTCP, K = 40
  core::DumbbellResult dt;       ///< DT-DCTCP, hysteresis loop (kTrendPeak)
  core::DumbbellResult dt_band;  ///< DT-DCTCP, half-band reading
};

inline core::DumbbellConfig sweep_config(std::size_t flows, bool dt) {
  core::DumbbellConfig cfg;
  cfg.flows = flows;
  cfg.bottleneck_bps = units::gbps(10);
  cfg.edge_bps = units::gbps(10);
  cfg.rtt = units::microseconds(100);
  cfg.marking = dt ? queue::MarkingRule::dt_dctcp(30.0, 50.0)
                   : queue::MarkingRule::dctcp(40.0);
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.dctcp_g = 1.0 / 16.0;
  cfg.switch_buffer_packets = 100;
  cfg.start_spread = units::microseconds(100);
  cfg.warmup = scaled(0.1, 0.02);
  cfg.measure = scaled(0.3, 0.05);
  return cfg;
}

/// Base seed of the flow sweep; each (N, variant) job derives its own
/// simulation seed from this with `derive_seed(kSweepSeed, job)`.
inline constexpr std::uint64_t kSweepSeed = 1;

/// Runs the paper's N = 10..100 step 5 sweep: DCTCP plus both DT-DCTCP
/// packet-level readings (the loop of Fig. 2b and the half-band
/// interpretation — see queue/ecn_hysteresis.h and EXPERIMENTS.md).
///
/// The 19 x 3 grid of independent simulations goes through the parallel
/// runner (worker count from DTDCTCP_JOBS, 1 = serial); results are
/// collected by job index, so the returned vector — and every table or
/// CSV printed from it — is identical for any worker count.
inline std::vector<SweepPoint> run_flow_sweep() {
  std::vector<std::size_t> flow_counts;
  for (std::size_t n = 10; n <= 100; n += 5) flow_counts.push_back(n);

  std::vector<SweepPoint> points(flow_counts.size());
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    points[i].flows = flow_counts[i];
  }
  constexpr std::size_t kVariants = 3;  // dc, dt loop, dt half-band
  runner::RunnerTelemetry tm;
  runner::run_indexed(
      flow_counts.size() * kVariants,
      [&](std::size_t job) {
        const std::size_t i = job / kVariants;
        const std::size_t variant = job % kVariants;
        auto cfg = sweep_config(flow_counts[i], /*dt=*/variant != 0);
        if (variant == 2) {
          cfg.marking.variant = queue::HysteresisVariant::kHalfBand;
        }
        cfg.seed = derive_seed(kSweepSeed, job);
        const auto result = core::run_dumbbell(cfg);
        switch (variant) {
          case 0: points[i].dc = result; break;
          case 1: points[i].dt = result; break;
          default: points[i].dt_band = result; break;
        }
      },
      runner_options("sweep"), &tm);
  report_telemetry("sweep", tm);
  return points;
}

}  // namespace dtdctcp::bench
