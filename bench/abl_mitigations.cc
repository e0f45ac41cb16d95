// Ablation: Incast mitigations compared and combined. The paper's
// DT-DCTCP postpones the collapse via steadier queues; the systems
// literature offers three orthogonal levers implemented in this
// library: SACK (recover multi-loss without RTO), sender pacing (no
// synchronized bursts), and a datacenter min-RTO. This bench crosses
// them with the two marking schemes at the collapse boundary.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/incast_experiment.h"
#include "runner/runner.h"

using namespace dtdctcp;

namespace {

struct Mitigation {
  const char* name;
  bool sack;
  bool pacing;
  double min_rto;
};

core::IncastExperimentResult run_point(std::size_t flows, bool dt,
                                       const Mitigation& m) {
  core::IncastExperimentConfig cfg;
  cfg.flows = flows;
  cfg.bytes_per_worker = 64 * 1024;
  cfg.repetitions = bench::scaled_count(30, 5);
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.sack_enabled = m.sack;
  cfg.tcp.pacing = m.pacing;
  cfg.tcp.min_rto = m.min_rto;
  cfg.tcp.init_rto = m.min_rto;
  cfg.testbed.marking = dt ? core::kTestbedDtDctcp : core::kTestbedDctcp;
  return core::run_incast(cfg);
}

}  // namespace

int main() {
  bench::header("Ablation", "Incast mitigations at the collapse boundary");
  std::printf("testbed as Figure 14, n in {36, 40, 44}, %zu repetitions\n\n",
              bench::scaled_count(30, 5));

  const Mitigation mitigations[] = {
      {"baseline (200ms RTO)", false, false, 0.2},
      {"+SACK", true, false, 0.2},
      {"+pacing", false, true, 0.2},
      {"+SACK+pacing", true, true, 0.2},
      {"+SACK+pacing+10ms RTO", true, true, 0.01},
  };

  const std::vector<std::size_t> fan_ins = {36, 40, 44};
  const std::size_t n_mit = std::size(mitigations);
  // Job index: (n, mitigation, protocol) in row-major order, DC first.
  const auto results = runner::sweep(
      "mitigations", fan_ins.size() * n_mit * 2, [&](std::size_t job) {
        const std::size_t n = fan_ins[job / (n_mit * 2)];
        const auto& m = mitigations[(job / 2) % n_mit];
        return run_point(n, /*dt=*/job % 2 == 1, m);
      });

  for (std::size_t ni = 0; ni < fan_ins.size(); ++ni) {
    bench::section(
        ("n = " + std::to_string(fan_ins[ni]) + " synchronized flows")
            .c_str());
    std::printf("%-24s | %12s %8s | %12s %8s\n", "mitigation", "DC_Mbps",
                "DC_to", "DT_Mbps", "DT_to");
    for (std::size_t mi = 0; mi < n_mit; ++mi) {
      const auto& dc = results[(ni * n_mit + mi) * 2];
      const auto& dt = results[(ni * n_mit + mi) * 2 + 1];
      std::printf("%-24s | %12.1f %8llu | %12.1f %8llu\n",
                  mitigations[mi].name, dc.goodput_mean_bps / 1e6,
                  static_cast<unsigned long long>(dc.timeouts),
                  dt.goodput_mean_bps / 1e6,
                  static_cast<unsigned long long>(dt.timeouts));
    }
  }

  bench::expectation(
      "Pacing removes the synchronized burst and rescues the boundary "
      "outright; the 10 ms min-RTO raises the post-collapse floor by an "
      "order of magnitude. SACK helps little *here*: at cwnd ~1-2 a "
      "worker that loses its whole window gets no dup ACKs, so the "
      "scoreboard never engages (it shines on larger-window multi-loss, "
      "see tests/sack_test.cc). DT-DCTCP's steadier queue adds on top "
      "of whichever lever is active.");
  return 0;
}
