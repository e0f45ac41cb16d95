// Incast study: sweep the fan-in degree on the paper's testbed and
// locate the goodput-collapse cliff for DCTCP vs DT-DCTCP.
//
//   $ ./build/examples/incast_study [max_flows] [repetitions]
#include <cstdio>
#include <cstdlib>

#include "core/dtdctcp.h"

using namespace dtdctcp;

int main(int argc, char** argv) {
  const std::size_t max_flows = argc > 1 ? std::atoi(argv[1]) : 44;
  const std::size_t reps = argc > 2 ? std::atoi(argv[2]) : 20;

  std::printf("Incast on the 4-switch testbed: 64 KB/worker, %zu queries "
              "per point, 1 Gbps links, 128 KB bottleneck buffer\n\n",
              reps);
  std::printf("%6s %14s %14s %8s %8s\n", "flows", "DCTCP_Mbps", "DT_Mbps",
              "DC_to", "DT_to");

  for (std::size_t n = 4; n <= max_flows; n += 4) {
    core::IncastExperimentConfig cfg;
    cfg.flows = n;
    cfg.repetitions = reps;
    cfg.tcp.mode = tcp::CcMode::kDctcp;
    cfg.tcp.min_rto = 0.2;
    cfg.tcp.init_rto = 0.2;

    cfg.testbed.marking =
        queue::MarkingRule::dctcp(32 * 1024, queue::ThresholdUnit::kBytes);
    const auto dc = core::run_incast(cfg);

    cfg.testbed.marking = queue::MarkingRule::dt_dctcp(
        28 * 1024, 34 * 1024, queue::ThresholdUnit::kBytes);
    const auto dt = core::run_incast(cfg);

    std::printf("%6zu %14.1f %14.1f %8llu %8llu\n", n,
                dc.goodput_mean_bps / 1e6, dt.goodput_mean_bps / 1e6,
                static_cast<unsigned long long>(dc.timeouts),
                static_cast<unsigned long long>(dt.timeouts));
    std::fflush(stdout);
  }

  std::printf("\nThe cliff is where goodput falls toward the min-RTO floor; "
              "DT-DCTCP's earlier marking start keeps the queue peaks off "
              "the buffer limit a few flows longer.\n");
  return 0;
}
