// Ablation: transport/AQM pairings on the dumbbell — the conventional
// stacks the DCTCP line of work departs from (paper §I-II motivation).
// Compares Reno+DropTail, Reno+RED, classic ECN, DCTCP, and DT-DCTCP on
// queue occupancy, loss, and utilization at two flow counts.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/sweep_common.h"
#include "runner/runner.h"

using namespace dtdctcp;

namespace {

struct ProtoCase {
  const char* name;
  tcp::CcMode mode;
  queue::MarkingRule marking;  ///< on the 100-pkt bottleneck
};

core::DumbbellResult run_case(const ProtoCase& pc, std::size_t flows) {
  auto cfg = bench::sweep_config(flows, false);
  cfg.tcp.mode = pc.mode;
  cfg.tcp.min_rto = 0.01;  // loss-based stacks need a sane datacenter RTO
  cfg.tcp.init_rto = 0.01;
  cfg.marking = pc.marking;
  return core::run_dumbbell(cfg);
}

}  // namespace

int main() {
  bench::header("Ablation", "transport/AQM pairings on the 10 Gbps dumbbell");
  std::printf("buffer 100 pkts, RTT 100 us; RED band aligned with the "
              "DT thresholds (30/50)\n\n");

  using queue::MarkingRule;
  const auto droptail = MarkingRule::drop_tail();
  const auto red = MarkingRule::aqm(queue::RedConfig{.min_th = 30.0,
                                                     .max_th = 50.0});
  const auto k40 = MarkingRule::dctcp(40.0);
  const ProtoCase cases[] = {
      {"Reno+DropTail", tcp::CcMode::kReno, droptail},
      {"CUBIC+DropTail", tcp::CcMode::kCubic, droptail},
      {"Reno+RED(drop mode)", tcp::CcMode::kReno, red},
      {"EcnReno+RED", tcp::CcMode::kEcnReno, red},
      {"EcnReno+K40", tcp::CcMode::kEcnReno, k40},
      {"DCTCP+CoDel(50us)", tcp::CcMode::kDctcp,
       MarkingRule::aqm(queue::CodelConfig{})},
      {"DCTCP+PIE(50us)", tcp::CcMode::kDctcp,
       MarkingRule::aqm(queue::PieConfig{})},
      {"DCTCP+K40", tcp::CcMode::kDctcp, k40},
      {"DT-DCTCP(30,50)", tcp::CcMode::kDctcp,
       MarkingRule::dt_dctcp(30.0, 50.0)},
  };

  const std::vector<std::size_t> flow_counts = {10, 60};
  const std::size_t n_cases = std::size(cases);
  // Job index: (flow count, stack) in row-major order.
  runner::RunnerTelemetry tm;
  const auto results = runner::run_jobs(
      flow_counts.size() * n_cases,
      [&](std::size_t job) {
        return run_case(cases[job % n_cases], flow_counts[job / n_cases]);
      },
      bench::runner_options("protocols"), &tm);
  bench::report_telemetry("protocols", tm);

  for (std::size_t fi = 0; fi < flow_counts.size(); ++fi) {
    bench::section(flow_counts[fi] == 10 ? "N = 10 flows" : "N = 60 flows");
    std::printf("%-32s %8s %8s %8s %8s %8s\n", "stack", "qmean", "qsd",
                "drops", "to", "util");
    for (std::size_t ci = 0; ci < n_cases; ++ci) {
      const auto& r = results[fi * n_cases + ci];
      std::printf("%-32s %8.1f %8.2f %8llu %8llu %8.3f\n", cases[ci].name,
                  r.queue_mean, r.queue_stddev,
                  static_cast<unsigned long long>(r.drops),
                  static_cast<unsigned long long>(r.timeouts),
                  r.utilization);
    }
  }

  bench::expectation(
      "Loss-based stacks (Reno/CUBIC over DropTail) fill the buffer and "
      "drop steadily. RED/CoDel/PIE hold latency bands at some "
      "throughput cost; DCTCP/DT-DCTCP pin the queue near the threshold "
      "with near-zero loss at full utilization — the paper's motivating "
      "comparison, with the modern AQMs added for context.");
  return 0;
}
