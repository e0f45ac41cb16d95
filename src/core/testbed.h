// The paper's testbed (Fig. 13): Switch 1 as the aggregation point with
// one aggregator host; Switches 2-4 each connect three workers. The
// bottleneck is Switch 1's 1 Gbps egress port toward the aggregator
// (128 KB buffer, marking discipline); edge switches are drop-tail.
//
// The worker count is generalized beyond the physical nine machines:
// workers are spread round-robin over the three edge switches, matching
// how the paper scales "synchronized flows" past the host count (multiple
// flows per host).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "queue/marking_rule.h"
#include "sim/network.h"
#include "tcp/config.h"
#include "util/units.h"

namespace dtdctcp::core {

/// The paper's testbed marking on Switch 1's bottleneck port: DCTCP
/// with K = 32 KB, DT-DCTCP with K1/K2 = 28/34 KB.
inline constexpr queue::MarkingRule kTestbedDctcp =
    queue::MarkingRule::dctcp(32 * 1024, queue::ThresholdUnit::kBytes);
inline constexpr queue::MarkingRule kTestbedDtDctcp =
    queue::MarkingRule::dt_dctcp(28 * 1024, 34 * 1024,
                                 queue::ThresholdUnit::kBytes);

struct TestbedConfig {
  std::size_t workers = 9;
  DataRate link_bps = units::gbps(1);
  std::size_t bottleneck_buffer_bytes = 128 * 1024;  ///< Switch 1 port
  std::size_t edge_buffer_bytes = 512 * 1024;        ///< Switches 2-4
  SimTime host_link_delay = units::microseconds(20);
  SimTime trunk_link_delay = units::microseconds(5);
  queue::MarkingRule marking = kTestbedDctcp;
};

/// Owns the network and exposes the handles experiments need.
struct Testbed {
  std::unique_ptr<sim::Network> net;
  sim::Host* aggregator = nullptr;
  std::vector<sim::Host*> workers;
  sim::Switch* core_switch = nullptr;
  std::size_t bottleneck_port = 0;  ///< Switch 1 port toward aggregator

  sim::Port& bottleneck() { return core_switch->port(bottleneck_port); }
};

Testbed build_testbed(const TestbedConfig& cfg);

}  // namespace dtdctcp::core
