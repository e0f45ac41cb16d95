// Network: owns the simulator, all nodes, and the wiring between them.
//
// Links are full duplex: connecting A and B creates one egress port on
// each side, each with its own queue discipline. Static shortest-path
// routes are computed once the topology is complete.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/host.h"
#include "sim/queue_disc.h"
#include "sim/simulator.h"
#include "sim/switch.h"
#include "util/units.h"

namespace dtdctcp::sim {

/// Factory invoked once per egress port needing a queue discipline.
using QueueFactory = std::function<std::unique_ptr<QueueDisc>()>;

class Network {
 public:
  Simulator& sim() { return sim_; }

  Host& add_host(std::string name);
  Switch& add_switch(std::string name);

  /// Connects a host to a switch. `host_disc` builds the host NIC queue,
  /// `switch_disc` the switch egress queue toward the host (this is
  /// where AQM/marking lives). Returns the switch-side port index.
  std::size_t attach_host(Host& host, Switch& sw, DataRate rate_bps,
                          SimTime prop_delay, const QueueFactory& host_disc,
                          const QueueFactory& switch_disc);

  /// Connects two switches; `a_disc`/`b_disc` build each egress queue.
  /// Returns {port index on a, port index on b}.
  std::pair<std::size_t, std::size_t> connect_switches(
      Switch& a, Switch& b, DataRate rate_bps, SimTime prop_delay,
      const QueueFactory& a_disc, const QueueFactory& b_disc);

  /// Port usability predicate for route computation: return false to
  /// exclude the port (its link is down). The predicate is link-level —
  /// when a link is down, BOTH endpoints' ports toward each other must
  /// return false, or the BFS and the installed groups disagree.
  using PortFilter = std::function<bool(const Switch&, std::size_t)>;
  /// Limits which switches' tables a rebuild rewrites (sharded runs
  /// rewrite only the switches they own, all shards computing the same
  /// BFS so the distributed tables agree).
  using SwitchFilter = std::function<bool(const Switch&)>;

  /// Computes shortest-path static routes from every switch to every
  /// host. Call after the topology is complete, before running traffic.
  void build_routes() { rebuild_routes(nullptr, nullptr); }

  /// Recomputes routes honouring `usable` (null = every port usable)
  /// and rewriting only switches accepted by `write` (null = all); each
  /// filter is called once per switch port or switch. A rebuild always
  /// installs the group — including an EMPTY group when the destination
  /// became unreachable — so stale pre-failure routes are cleared and
  /// packets hit the counted unrouted-drop guard instead of a dead path.
  void rebuild_routes(const PortFilter& usable, const SwitchFilter& write);

  /// Allocates a unique flow id.
  FlowId new_flow() { return next_flow_++; }

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

 private:
  NodeId next_id() { return static_cast<NodeId>(nodes_.size()); }

  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Switch*> switches_;
  std::vector<Host*> hosts_;
  FlowId next_flow_ = 1;
};

}  // namespace dtdctcp::sim
