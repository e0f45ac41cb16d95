// Extension: convergence and fairness dynamics — five long-lived flows
// join a 1 Gbps bottleneck one after another, then leave in reverse
// (the DCTCP SIGCOMM convergence test), under DCTCP vs DT-DCTCP
// marking. Reports per-epoch goodput shares and Jain fairness.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "sim/star.h"
#include "workload/fct_workloads.h"
#include "workload/flow_sampler.h"

using namespace dtdctcp;

namespace {

void run_protocol(bool dt) {
  constexpr int kFlows = 5;
  sim::Network net;
  const sim::Star star = sim::build_star(
      net, {.senders = kFlows},
      (dt ? workload::FctScheme::kDtLoop : workload::FctScheme::kDctcp)
          .queue_factory(0, 200));

  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  const double epoch = bench::scaled(0.1, 0.03);

  std::vector<std::unique_ptr<tcp::Connection>> conns;
  for (int i = 0; i < kFlows; ++i) {
    conns.push_back(
        std::make_unique<tcp::Connection>(net, *star.senders[i], *star.sink,
                                          cfg, 0));
    conns.back()->start_at(epoch * i);
  }

  workload::FlowThroughputSampler sampler(net, epoch / 10.0);
  for (auto& c : conns) sampler.add(c.get());
  sampler.start(0.0);

  const double total = epoch * kFlows;
  net.sim().run_until(total);
  sampler.stop();

  std::printf("\n%s: goodput share per flow at each epoch end (Mbps)\n",
              dt ? "DT-DCTCP(15,25)" : "DCTCP(K=20)");
  std::printf("%8s |", "t(ms)");
  for (int i = 0; i < kFlows; ++i) std::printf(" flow%-4d", i);
  std::printf(" %8s\n", "Jain");
  for (int e = 1; e <= kFlows; ++e) {
    const double t = epoch * e - epoch / 5.0;  // late in the epoch
    std::printf("%8.1f |", t * 1e3);
    std::vector<double> rates;
    for (int i = 0; i < kFlows; ++i) {
      // Find the sample nearest t.
      double best = 0.0;
      double best_dt = 1e9;
      for (const auto& s : sampler.throughput(i).samples()) {
        const double d = std::abs(s.time - t);
        if (d < best_dt) {
          best_dt = d;
          best = s.value;
        }
      }
      std::printf(" %8.1f", best / 1e6);
      if (best > 1e6) rates.push_back(best);
    }
    std::printf(" %8.3f\n", stats::jain_index(rates));
  }
  const auto jain = sampler.jain_trace().summarize(epoch);
  std::printf("mean Jain index after first join: %.3f\n", jain.mean());
}

}  // namespace

int main() {
  bench::header("Extension", "convergence test: flows joining a bottleneck");
  std::printf("five long-lived flows join a 1 Gbps bottleneck at fixed "
              "intervals; shares should converge toward equal quickly\n");
  run_protocol(false);
  run_protocol(true);
  bench::expectation(
      "Each arriving flow claims its fair share within an epoch; the "
      "Jain index stays near 1.0 at every epoch under both marking "
      "schemes (DT-DCTCP's stability does not cost convergence speed).");
  return 0;
}
