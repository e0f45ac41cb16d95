// Output-queued switch with static forwarding and optional per-flow
// ECMP across equal-cost egress ports.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/node.h"
#include "sim/port.h"

namespace dtdctcp::sim {

class Switch final : public Node {
 public:
  Switch(NodeId id, std::string name) : Node(id, std::move(name)) {}

  /// Adds an egress port; returns its index.
  std::size_t add_port(std::unique_ptr<Port> port) {
    ports_.push_back(std::move(port));
    return ports_.size() - 1;
  }

  Port& port(std::size_t i) { return *ports_[i]; }
  std::size_t port_count() const { return ports_.size(); }

  /// One destination's equal-cost group: `size` egress-port indices at
  /// `offset` in the switch's port pool. Size 0 means no route.
  struct RouteEntry {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  /// Replaces the forwarding table (static routing, built by Network):
  /// `table[dst]` is the group for destination id `dst`, a range of
  /// `pool`, and destinations that share a group share its range. The
  /// egress port is chosen per flow by a deterministic hash (packets of
  /// one flow always take the same path, like real ECMP). Both arrays
  /// keep their capacity, so re-installing a table no larger than
  /// before allocates nothing.
  void set_routes(std::span<const RouteEntry> table,
                  std::span<const std::uint32_t> pool) {
    routes_.assign(table.begin(), table.end());
    pool_.assign(pool.begin(), pool.end());
  }

  /// The installed group for `dst` (empty when there is no route).
  std::span<const std::uint32_t> route(NodeId dst) const {
    if (dst >= routes_.size()) return {};
    return std::span(pool_).subspan(routes_[dst].offset, routes_[dst].size);
  }

  /// Forwards to the routed egress port; packets without a route are
  /// counted and discarded (misconfiguration guard, never silent).
  void receive(Packet pkt) override;

  std::uint64_t unrouted_drops() const { return unrouted_drops_; }

  /// Aggregate of all egress ports plus switch-level drop classes.
  Counters counters() const {
    Counters c;
    for (const auto& p : ports_) c += p->counters();
    c.unrouted_dropped = unrouted_drops_;
    return c;
  }

  /// The deterministic flow -> member hash used for ECMP (exposed so
  /// tests and traffic generators can predict path assignment).
  /// `salt` perturbs the hash per switch: salt 0 is the legacy unsalted
  /// hash, so every switch repeats the same decision (the
  /// hash-polarization failure mode multi-tier fabrics must be able to
  /// reproduce); distinct salts give independent decisions per tier.
  static std::size_t ecmp_pick(FlowId flow, std::size_t group_size,
                               std::uint64_t salt = 0) {
    std::uint64_t x = static_cast<std::uint64_t>(flow);
    if (salt != 0) {
      // splitmix64 finalizer over (flow ^ salt): full avalanche, so
      // per-switch salts decorrelate the member choice across tiers.
      x ^= salt;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      x ^= x >> 31;
    }
    // Fibonacci hashing spreads consecutive flow ids across members.
    const std::uint64_t h = x * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>((h >> 33) % group_size);
  }

  /// Per-switch ECMP hash salt used by receive(); 0 (the default) keeps
  /// the pre-salt behaviour bit-for-bit.
  void set_ecmp_salt(std::uint64_t salt) { ecmp_salt_ = salt; }
  std::uint64_t ecmp_salt() const { return ecmp_salt_; }

 private:
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<RouteEntry> routes_;  ///< dst -> range of pool_
  std::vector<std::uint32_t> pool_;  ///< every group's egress ports
  std::uint64_t unrouted_drops_ = 0;
  std::uint64_t ecmp_salt_ = 0;
};

}  // namespace dtdctcp::sim
