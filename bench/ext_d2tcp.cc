// Extension: D2TCP (Vamanan et al., SIGCOMM'12), the deadline-aware
// DCTCP the paper cites as follow-on work. N flows with mixed deadlines
// share a marked bottleneck; the gamma-corrected penalty p = alpha^d
// lets near-deadline flows back off less. Reports per-group completion
// times and deadline miss counts for DCTCP vs D2TCP (both over the
// DCTCP and the DT-DCTCP switch discipline).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "queue/factory.h"
#include "sim/network.h"
#include "tcp/connection.h"
#include "workload/fct_workloads.h"

using namespace dtdctcp;

namespace {

struct GroupResult {
  double tight_worst = 0.0;   ///< worst completion among tight flows
  double loose_worst = 0.0;
  int tight_misses = 0;
  int loose_misses = 0;
};

GroupResult run_mix(bool deadline_aware, bool dt_switch, int flows,
                    double tight_deadline, double loose_deadline) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_host("sink");
  const auto q = queue::drop_tail(0, 0);
  const auto mark = (dt_switch ? workload::FctScheme::kDtLoop
                               : workload::FctScheme::kDctcp)
                        .queue_factory(0, 200);
  net.attach_host(sink, sw, units::gbps(1), 25e-6, q, mark);
  std::vector<sim::Host*> hosts;
  for (int i = 0; i < flows; ++i) {
    auto& h = net.add_host("h" + std::to_string(i));
    net.attach_host(h, sw, units::gbps(10), 25e-6, q, q);
    hosts.push_back(&h);
  }
  net.build_routes();

  constexpr std::int64_t kSegs = 2000;  // 3 MB per flow
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  std::vector<double> deadlines;
  for (int i = 0; i < flows; ++i) {
    const bool tight = i < flows / 2;
    tcp::TcpConfig cfg;
    cfg.mode = deadline_aware ? tcp::CcMode::kD2tcp : tcp::CcMode::kDctcp;
    cfg.min_rto = 0.01;
    cfg.init_rto = 0.01;
    const double deadline = tight ? tight_deadline : loose_deadline;
    cfg.deadline = deadline_aware ? deadline : 0.0;
    deadlines.push_back(deadline);
    conns.push_back(
        std::make_unique<tcp::Connection>(net, *hosts[i], sink, cfg, kSegs));
    conns.back()->start_at(0.0);
  }
  net.sim().run();

  GroupResult gr;
  for (int i = 0; i < flows; ++i) {
    const double t = conns[i]->sender().completion_time();
    const bool tight = i < flows / 2;
    const bool missed = t > deadlines[i];
    if (tight) {
      gr.tight_worst = std::max(gr.tight_worst, t);
      gr.tight_misses += missed ? 1 : 0;
    } else {
      gr.loose_worst = std::max(gr.loose_worst, t);
      gr.loose_misses += missed ? 1 : 0;
    }
  }
  return gr;
}

}  // namespace

int main() {
  bench::header("Extension", "D2TCP: deadline-aware DCTCP (cited follow-on)");
  const int flows = 8;
  const double tight = 0.185;  // seconds; feasible only with priority
  const double loose = 1.0;
  std::printf("%d flows x 3 MB over a 1 Gbps marked bottleneck; half the "
              "flows have a %.0f ms deadline, half %.0f ms\n\n",
              flows, tight * 1e3, loose * 1e3);

  std::printf("%-10s %-10s | %12s %12s | %7s %7s\n", "sender", "switch",
              "tight_worst", "loose_worst", "t_miss", "l_miss");
  for (const bool dt_switch : {false, true}) {
    for (const bool aware : {false, true}) {
      const auto r = run_mix(aware, dt_switch, flows, tight, loose);
      std::printf("%-10s %-10s | %10.1fms %10.1fms | %7d %7d\n",
                  aware ? "D2TCP" : "DCTCP",
                  dt_switch ? "DT(15,25)" : "K=20", r.tight_worst * 1e3,
                  r.loose_worst * 1e3, r.tight_misses, r.loose_misses);
      std::fflush(stdout);
    }
  }

  bench::expectation(
      "Deadline-blind DCTCP splits the link evenly, so tight-deadline "
      "flows finish with the pack and miss. D2TCP's gamma correction "
      "finishes the tight group earlier (fewer tight misses) at the "
      "cost of the loose group, whose budget absorbs it — under either "
      "switch discipline.");
  return 0;
}
