// Extension: the queue-buildup microbenchmark (DCTCP SIGCOMM §2.3) —
// two long-lived background flows occupy a 1 Gbps bottleneck while a
// client issues periodic short (20 KB) requests through the same queue.
// The short flows' completion time is dominated by the standing queue
// the background traffic leaves, which is exactly what the marking
// scheme controls. Compares CUBIC+DropTail, DCTCP, and DT-DCTCP.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "sim/queue_monitor.h"
#include "sim/star.h"
#include "stats/percentile.h"
#include "tcp/connection.h"
#include "workload/fct_workloads.h"

using namespace dtdctcp;

namespace {

struct Result {
  double short_mean_ms, short_p99_ms;
  double queue_mean;
  double bg_goodput_mbps;
};

Result run_stack(int kind) {  // 0 cubic+droptail, 1 dctcp, 2 dt-dctcp
  const queue::MarkingRule rules[] = {workload::FctScheme::kDropTail,
                                      workload::FctScheme::kDctcp,
                                      workload::FctScheme::kDtLoop};
  sim::Network net;
  const sim::Star star = sim::build_star(net, {.senders = 3},
                                         rules[kind].queue_factory(0, 150));

  tcp::TcpConfig cfg;
  cfg.mode = kind == 0 ? tcp::CcMode::kCubic : tcp::CcMode::kDctcp;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;

  // Two background elephants.
  tcp::Connection bg1(net, *star.senders[0], *star.sink, cfg, 0);
  tcp::Connection bg2(net, *star.senders[1], *star.sink, cfg, 0);
  bg1.start_at(0.0);
  bg2.start_at(0.0);

  // Periodic 20 KB requests (14 segments) from the third host.
  sim::QueueMonitor monitor;
  monitor.attach(star.bottleneck().disc());
  stats::PercentileTracker fct;
  std::vector<std::unique_ptr<tcp::Connection>> minnows;
  const double period = 0.005;
  const int shorts = static_cast<int>(bench::scaled(60, 10));
  std::function<void(int)> fire = [&](int i) {
    if (i >= shorts) return;
    auto conn = std::make_unique<tcp::Connection>(net, *star.senders[2],
                                                  *star.sink, cfg, 14);
    const SimTime begin = net.sim().now();
    conn->set_on_complete(
        [&fct, begin](SimTime t) { fct.add(t - begin); });
    conn->start_at(begin);
    minnows.push_back(std::move(conn));
    net.sim().after(period, [&fire, i] { fire(i + 1); });
  };
  net.sim().run_until(0.05);  // background warm-up
  monitor.reset_stats(0.05);
  fire(0);
  const double end = 0.05 + shorts * period + 0.5;
  net.sim().run_until(end);
  monitor.finish(end);

  Result r;
  r.short_mean_ms = fct.mean() * 1e3;
  r.short_p99_ms = fct.p99() * 1e3;
  r.queue_mean = monitor.packets().mean();
  r.bg_goodput_mbps = static_cast<double>(bg1.receiver().bytes_received() +
                                          bg2.receiver().bytes_received()) *
                      8.0 / end / 1e6;
  return r;
}

}  // namespace

int main() {
  bench::header("Extension", "queue buildup: short flows behind elephants");
  std::printf("1 Gbps bottleneck, 150-pkt buffer, 2 long-lived background "
              "flows + periodic 20 KB requests\n\n");
  std::printf("%-18s %12s %12s %10s %12s\n", "stack", "short_mean",
              "short_p99", "qmean", "bg_goodput");
  std::printf("%-18s %12s %12s %10s %12s\n", "", "(ms)", "(ms)", "(pkts)",
              "(Mbps)");
  const char* names[] = {"CUBIC+DropTail", "DCTCP(K=20)", "DT-DCTCP(15,25)"};
  for (int kind = 0; kind < 3; ++kind) {
    const auto r = run_stack(kind);
    std::printf("%-18s %12.2f %12.2f %10.1f %12.1f\n", names[kind],
                r.short_mean_ms, r.short_p99_ms, r.queue_mean,
                r.bg_goodput_mbps);
    std::fflush(stdout);
  }
  bench::expectation(
      "Over DropTail the elephants keep the buffer full, so every short "
      "request waits the whole standing queue (milliseconds). DCTCP "
      "holds the queue near K and the short-flow latency drops by an "
      "order of magnitude at equal background goodput; DT-DCTCP matches "
      "it with its band in the same range.");
  return 0;
}
