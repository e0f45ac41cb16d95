// Ablation: the minimum RTO. The Incast cliff's *depth* is set almost
// entirely by min-RTO (the collapse goodput is roughly
// bytes / min_rto); its *location* by buffer and marking. The paper-era
// stacks used 200 ms; datacenter-tuned stacks dropped it to
// milliseconds, which is the classic Incast mitigation this bench
// quantifies against DT-DCTCP's.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/incast_experiment.h"
#include "runner/runner.h"

using namespace dtdctcp;

namespace {

core::IncastExperimentResult run_point(std::size_t flows, bool dt,
                                       double min_rto) {
  core::IncastExperimentConfig cfg;
  cfg.flows = flows;
  cfg.bytes_per_worker = 64 * 1024;
  cfg.repetitions = bench::scaled_count(30, 5);
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.min_rto = min_rto;
  cfg.tcp.init_rto = min_rto;
  cfg.testbed.marking = dt ? core::kTestbedDtDctcp : core::kTestbedDctcp;
  return core::run_incast(cfg);
}

}  // namespace

int main() {
  bench::header("Ablation", "Incast vs minimum RTO");
  std::printf("testbed as Figure 14, %zu repetitions per point\n\n",
              bench::scaled_count(30, 5));

  const std::vector<double> rtos_ms = {200.0, 50.0, 10.0};
  const std::vector<std::size_t> fan_ins = {24, 32, 36, 40, 44, 48};
  // Job index: (rto, n, protocol) in row-major order, DC before DT.
  const auto results = runner::sweep(
      "minrto", rtos_ms.size() * fan_ins.size() * 2, [&](std::size_t job) {
        const double rto_ms = rtos_ms[job / (fan_ins.size() * 2)];
        const std::size_t n = fan_ins[(job / 2) % fan_ins.size()];
        return run_point(n, /*dt=*/job % 2 == 1, rto_ms * 1e-3);
      });

  for (std::size_t r = 0; r < rtos_ms.size(); ++r) {
    const double rto_ms = rtos_ms[r];
    bench::section(rto_ms == 200.0 ? "min-RTO 200 ms (paper-era default)"
                   : rto_ms == 50.0 ? "min-RTO 50 ms"
                                    : "min-RTO 10 ms (datacenter-tuned)");
    std::printf("%5s %14s %14s %10s %10s\n", "n", "DC_Mbps", "DT_Mbps",
                "DC_to", "DT_to");
    for (std::size_t i = 0; i < fan_ins.size(); ++i) {
      const auto& dc = results[(r * fan_ins.size() + i) * 2];
      const auto& dt = results[(r * fan_ins.size() + i) * 2 + 1];
      std::printf("%5zu %14.1f %14.1f %10llu %10llu\n", fan_ins[i],
                  dc.goodput_mean_bps / 1e6, dt.goodput_mean_bps / 1e6,
                  static_cast<unsigned long long>(dc.timeouts),
                  static_cast<unsigned long long>(dt.timeouts));
    }
  }

  bench::expectation(
      "With min-RTO 200 ms the collapse is catastrophic (goodput drops "
      "to ~100 Mbps). Shrinking min-RTO raises the post-collapse floor "
      "dramatically — the orthogonal mitigation — while the marking "
      "scheme (DT vs DC) shifts where degradation starts.");
  return 0;
}
