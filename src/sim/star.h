// Star builder: N senders -> one switch -> one sink, the shape of the
// paper's simulation study (Figs. 1, 10-12), the FCT harness, the
// fuzzer's dumbbell and incast rigs, and the single-bottleneck
// extension benches. The marked queue is the switch's egress toward the
// sink; the egress toward each sender carries only ACKs.
//
// Wiring order is fixed: switch, sink, the sink link, then each sender
// with its link, then routes. So the switch is node 0, the sink node 1
// and sender i node i + 2; the bottleneck is switch port 0 and sender
// i's ACK-return queue is switch port i + 1. Every link has the one-way
// delay `leg`, so the propagation RTT is 4 * leg. Host NICs get
// unbounded drop-tail.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/network.h"
#include "util/units.h"

namespace dtdctcp::sim {

struct StarConfig {
  std::size_t senders = 1;
  DataRate bottleneck_bps = 1e9;  ///< switch <-> sink link
  DataRate edge_bps = 10e9;       ///< sender <-> switch links
  SimTime leg = 25e-6;            ///< one-way delay of every link
};

struct Star {
  Switch* sw = nullptr;
  Host* sink = nullptr;
  std::vector<Host*> senders;
  std::size_t bottleneck_port = 0;  ///< switch egress toward the sink

  Port& bottleneck() const { return sw->port(bottleneck_port); }
};

/// Wires the star into `net` and builds its routes. `bottleneck` builds
/// the switch's egress queue toward the sink, `ack_return` its egress
/// queue toward each sender (null = unbounded drop-tail).
Star build_star(Network& net, const StarConfig& cfg,
                const QueueFactory& bottleneck,
                const QueueFactory& ack_return = nullptr);

}  // namespace dtdctcp::sim
