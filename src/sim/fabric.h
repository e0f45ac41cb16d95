// Clos fabric builder: the 2-tier leaf-spine and the 3-tier k-ary
// fat-tree are one built type, sim::Clos, wired by one loop, with
// seeded per-flow ECMP, per-tier link speeds/delays, and scheduled link
// up/down events that reroute affected flows mid-run.
//
// Shape: `pods` pods, each with `edges_per_pod` edge switches and
// `aggs_per_pod` agg switches, above `cores` core switches. Every edge
// uplinks to each agg of its pod, and agg j stripes onto cores
// [j*c, (j+1)*c) with c = cores / aggs_per_pod. A fabric with no agg
// tier uplinks every edge to every core instead: a leaf-spine is that
// two-tier case, one edge (leaf) per pod and the spines as cores. The
// canonical fat-tree (Al-Fares et al.) has k pods of k/2 edges and k/2
// aggs over (k/2)^2 cores; with k/2 hosts per edge it is rearrangeably
// non-blocking, and more hosts per edge oversubscribe the edge tier.
//
// ECMP seeding: every switch hashes (flow ^ salt) through
// Switch::ecmp_pick. kBalanced derives an independent salt per switch
// from the seed; kPolarized installs one identical non-zero salt
// everywhere, so each tier repeats the previous tier's decision and the
// classic hash-polarization collapse (each agg funnels all its flows
// onto ONE core uplink) is reproducible on demand; kLegacy keeps salt 0
// (the unsalted hash every leaf-spine is built with — also polarized).
//
// Link failures ("interface disabled" semantics): a down link's two
// port queues are drained through Port::drop_queued — every backlogged
// packet is accounted as a link_down drop, closing the conservation
// ledger — while packets already serialized onto the wire still
// deliver. Routes are recomputed around the down set; destinations that
// become unreachable have their entries CLEARED so traffic hits the
// counted unrouted-drop guard, never a stale path. Only switch-switch
// links are failable; host links never fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/network.h"
#include "util/units.h"

namespace dtdctcp::sim {

/// How per-switch ECMP hash salts are assigned by the Clos builder.
enum class EcmpMode : std::uint8_t {
  kLegacy,     ///< salt 0 everywhere: the leaf-spine hash
  kBalanced,   ///< independent per-switch salts derived from ecmp_seed
  kPolarized,  ///< one identical non-zero salt everywhere (forced
               ///< hash polarization, seeded by ecmp_seed)
};

struct LeafSpineConfig {
  std::size_t spines = 2;
  std::size_t leaves = 4;
  std::size_t hosts_per_leaf = 4;
  DataRate host_link_bps = 10e9;
  DataRate fabric_link_bps = 40e9;  ///< leaf <-> spine
  SimTime host_link_delay = 5e-6;
  SimTime fabric_link_delay = 5e-6;

  /// Builder sanity limits — sized for stress-scale fabrics (tens of
  /// thousands of hosts), far above anything the tests build; the
  /// builder rejects configs beyond them (or with a zero dimension)
  /// instead of silently allocating garbage.
  static constexpr std::size_t kMaxSpines = 64;
  static constexpr std::size_t kMaxLeaves = 512;
  static constexpr std::size_t kMaxHostsPerLeaf = 512;

  std::size_t total_hosts() const { return leaves * hosts_per_leaf; }

  /// Stress-sized preset: 8 leaves x 32 hosts behind 4 spines (256
  /// hosts, 2:1 oversubscription at the leaf). The fabric the parsim
  /// scaling benches and `sim_fuzz --large` run on.
  static LeafSpineConfig stress() {
    LeafSpineConfig cfg;
    cfg.spines = 4;
    cfg.leaves = 8;
    cfg.hosts_per_leaf = 32;
    return cfg;
  }
};

struct FatTreeConfig {
  std::size_t k = 4;  ///< pod count; must be even (k/2 is the tier radix)

  /// Hosts attached to each edge switch. 0 = k/2 (the canonical
  /// non-blocking fat-tree); larger values oversubscribe the edge tier.
  std::size_t hosts_per_edge = 0;

  // Heterogeneous per-tier links (defaults: 10G hosts, 40G fabric,
  // growing propagation delay toward the core).
  DataRate host_link_bps = 10e9;
  DataRate edge_agg_bps = 40e9;
  DataRate agg_core_bps = 40e9;
  SimTime host_link_delay = 2e-6;
  SimTime edge_agg_delay = 5e-6;
  SimTime agg_core_delay = 10e-6;

  EcmpMode ecmp = EcmpMode::kLegacy;
  std::uint64_t ecmp_seed = 1;  ///< drives kBalanced / kPolarized salts

  /// Builder sanity limits (k=16 is a 1024-host canonical fabric).
  static constexpr std::size_t kMaxK = 16;
  static constexpr std::size_t kMaxHostsPerEdge = 64;

  std::size_t radix() const { return k / 2; }
  std::size_t edge_hosts() const {
    return hosts_per_edge == 0 ? radix() : hosts_per_edge;
  }
  std::size_t total_hosts() const { return k * radix() * edge_hosts(); }
  /// Switch-switch links: k pods x (k/2 edges x k/2 aggs) intra-pod
  /// plus k pods x (k/2 aggs x k/2 core uplinks).
  std::size_t total_fabric_links() const { return 2 * k * radix() * radix(); }
};

/// One switch<->switch link (the failable set). Identified by its two
/// (switch, egress port) endpoints; `a` is the lower-tier end.
struct FabricLink {
  enum class Tier : std::uint8_t { kEdgeAgg, kAggCore, kEdgeCore };
  Switch* a = nullptr;
  std::size_t a_port = 0;
  Switch* b = nullptr;
  std::size_t b_port = 0;
  Tier tier = Tier::kEdgeAgg;
};

/// A scheduled link state change applied mid-run.
struct LinkEvent {
  SimTime time = 0.0;
  std::size_t link = 0;  ///< index into Clos::links (mod link count)
  bool up = false;       ///< false: fails at `time`; true: recovers
};

/// The shape a builder wired, derived from its config.
struct ClosShape {
  std::size_t pods = 0;
  std::size_t edges_per_pod = 0;
  std::size_t aggs_per_pod = 0;  ///< 0 = two tiers: edges uplink to every core
  std::size_t cores = 0;
  std::size_t hosts_per_edge = 0;

  std::size_t hosts_per_pod() const { return edges_per_pod * hosts_per_edge; }
};

struct Clos {
  std::unique_ptr<Network> net;
  ClosShape cfg;  ///< the wired shape
  std::vector<Switch*> cores;
  std::vector<Switch*> aggs;   ///< grouped by pod: aggs[p*aggs_per_pod + j]
  std::vector<Switch*> edges;  ///< grouped by pod: edges[p*edges_per_pod + e]
  std::vector<Host*> hosts;    ///< grouped by edge switch, pods in order
  /// Numbered pod by pod: each edge's uplinks in edge order, then each
  /// agg's core stripe. A fat-tree pod is r*r edge-agg links followed by
  /// r*r agg-core links (r = k/2); leaf-spine link l*S + s joins leaf l
  /// (port s) to spine s (port l).
  std::vector<FabricLink> links;
  /// Serial-run link state (1 = down), maintained by set_link_state.
  /// Sharded runs keep one copy per shard and use apply_link_event.
  std::vector<char> link_down;

  /// Serial convenience: brings `link` down (or back up) now —
  /// recomputes every switch's routes around the updated down set and,
  /// on failure, drains both port queues of the link. Returns the
  /// number of packets discarded from the drained queues.
  std::size_t set_link_state(std::size_t link, bool up, SimTime now);

  /// Shard-safe variant working on the CALLER's down-set copy: rewrites
  /// routes only for switches where `mine(switch)` is true (null = all)
  /// and drains only down-link ports owned by such switches. Every
  /// shard must apply the same event at the same simulated time against
  /// its own `down` vector; all shards compute the same BFS, so the
  /// distributed tables stay consistent.
  std::size_t apply_link_event(
      std::vector<char>& down, std::size_t link, bool up, SimTime now,
      const std::function<bool(const Switch&)>& mine);

  /// Recomputes routes honouring `down` for switches accepted by `mine`
  /// (null = all). Exposed for tests; set_link_state/apply_link_event
  /// call it internally.
  void rebuild_routes(const std::vector<char>& down,
                      const std::function<bool(const Switch&)>& mine);
};

/// The historical name of Clos, kept for existing callers.
using FatTree = Clos;

/// Both builders install `switch_queue` on every switch egress port
/// (host NICs get unbounded drop-tail) and throw std::invalid_argument
/// for a zero dimension or one beyond their config's limits (and for an
/// odd fat-tree k). Every leaf-spine uses EcmpMode::kLegacy.
Clos build_leaf_spine(const LeafSpineConfig& cfg,
                      const QueueFactory& switch_queue);
Clos build_fat_tree(const FatTreeConfig& cfg,
                    const QueueFactory& switch_queue);

}  // namespace dtdctcp::sim
