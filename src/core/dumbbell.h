// Dumbbell experiment: N long-lived senders -> one switch -> one sink,
// the scenario of the paper's simulation study (Figs. 1, 10, 11, 12).
#pragma once

#include <cstdint>

#include "queue/marking_rule.h"
#include "sim/network.h"
#include "stats/time_series.h"
#include "stats/time_weighted.h"
#include "tcp/config.h"
#include "util/units.h"

namespace dtdctcp::core {

/// The historical name of queue::MarkingRule, kept for existing callers.
using MarkingConfig = queue::MarkingRule;

struct DumbbellConfig {
  std::size_t flows = 10;                     ///< N senders
  DataRate bottleneck_bps = units::gbps(10);  ///< switch -> sink link
  DataRate edge_bps = units::gbps(10);        ///< sender -> switch links
  SimTime rtt = units::microseconds(100);     ///< propagation RTT
  queue::MarkingRule marking = queue::MarkingRule::dctcp(40.0);  ///< bottleneck
  tcp::TcpConfig tcp{};
  std::size_t switch_buffer_packets = 0;  ///< 0 = effectively infinite
  std::size_t switch_buffer_bytes = 0;

  SimTime warmup = 0.1;    ///< discarded from statistics
  SimTime measure = 0.4;   ///< measured window after warmup
  SimTime start_spread = 0.002;  ///< sender start-time stagger
  std::uint64_t seed = 1;

  bool trace_queue = false;         ///< record the full queue trace
  SimTime alpha_sample_every = 0.0; ///< 0 = one RTT
};

struct DumbbellResult {
  // Bottleneck queue, in packets, over the measurement window.
  double queue_mean = 0.0;
  double queue_stddev = 0.0;
  double queue_min = 0.0;
  double queue_max = 0.0;
  stats::TimeSeries queue_trace;  ///< full trace (if enabled), packets

  // Sender-side congestion estimate (paper Fig. 12).
  double alpha_mean = 0.0;
  stats::TimeSeries alpha_trace;

  // Aggregate behaviour over the measurement window.
  double utilization = 0.0;   ///< bottleneck throughput / capacity
  double goodput_bps = 0.0;   ///< receiver-side delivered bits/s
  std::uint64_t marks = 0;
  std::uint64_t drops = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t events = 0;   ///< simulator events processed
  std::uint64_t packets = 0;  ///< packets transmitted on the bottleneck
};

/// Builds the dumbbell, runs warmup + measurement, and gathers results.
DumbbellResult run_dumbbell(const DumbbellConfig& cfg);

}  // namespace dtdctcp::core
