// Ablation: marking on arrival vs marking on dequeue. DCTCP marks the
// arriving packet against the instantaneous queue; dequeue marking
// delivers a signal one queueing delay fresher at the cost of marking
// packets that waited through the congestion they report. Compares the
// two mark points across the flow sweep (single threshold, K = 40).
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/sweep_common.h"
#include "runner/runner.h"

using namespace dtdctcp;

namespace {

core::DumbbellResult run_point(std::size_t flows, queue::MarkPoint mp) {
  auto cfg = bench::sweep_config(flows, false);
  cfg.marking =
      queue::MarkingRule::dctcp(40.0, queue::ThresholdUnit::kPackets, mp);
  return core::run_dumbbell(cfg);
}

}  // namespace

int main() {
  bench::header("Ablation", "ECN mark point: arrival vs dequeue (K = 40)");
  std::printf("dumbbell sweep config as Figure 10\n\n");

  const std::vector<std::size_t> flow_counts = {10, 25, 50, 75, 100};
  // One job per (N, mark point): even index arrival, odd dequeue.
  runner::RunnerTelemetry tm;
  const auto results = runner::run_jobs(
      flow_counts.size() * 2,
      [&](std::size_t job) {
        return run_point(flow_counts[job / 2],
                         job % 2 == 0 ? queue::MarkPoint::kArrival
                                      : queue::MarkPoint::kDequeue);
      },
      bench::runner_options("markpoint"), &tm);
  bench::report_telemetry("markpoint", tm);

  std::printf("%5s | %10s %10s %8s | %10s %10s %8s\n", "N", "arr_mean",
              "arr_sd", "arr_to", "deq_mean", "deq_sd", "deq_to");
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    const auto& a = results[2 * i];
    const auto& d = results[2 * i + 1];
    std::printf("%5zu | %10.1f %10.2f %8llu | %10.1f %10.2f %8llu\n",
                flow_counts[i], a.queue_mean, a.queue_stddev,
                static_cast<unsigned long long>(a.timeouts), d.queue_mean,
                d.queue_stddev,
                static_cast<unsigned long long>(d.timeouts));
  }
  bench::expectation(
      "Dequeue marking reacts to congestion one queueing delay sooner; "
      "at small N both hold the queue near K, and the fresher signal "
      "shows up as equal-or-smaller oscillation. The paper's DCTCP and "
      "DT-DCTCP both mark on arrival.");
  return 0;
}
