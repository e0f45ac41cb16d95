// Static topology partitioning for the conservative parallel executor.
//
// A Partition assigns every node of a built sim::Network to one shard
// (logical process). Shards must cut only links with a strictly
// positive propagation delay — that delay is the lookahead that makes
// conservative synchronization safe (see shard_runner.h) — so the
// partitioning rule keeps zero-latency neighbourhoods together: a Clos
// pod (a leaf and its hosts, or a fat-tree pod's edges, aggs and hosts)
// forms one logical process, because host and intra-pod links are the
// short ones and the core uplinks carry the distance (and therefore the
// lookahead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace dtdctcp::sim {
struct Clos;
}  // namespace dtdctcp::sim

namespace dtdctcp::parsim {

/// Dense node -> shard map. Shard ids are contiguous in [0, shards).
struct Partition {
  std::size_t shards = 1;
  std::vector<std::uint32_t> shard_of;  ///< indexed by sim::NodeId

  std::uint32_t of(sim::NodeId id) const { return shard_of[id]; }

  /// Everything in shard 0 — the degenerate partition whose executor is
  /// byte-identical to the serial simulator.
  static Partition single(std::size_t node_count);
};

/// Clos partitioning rule: pods are kept whole — pod `p` (its edge and
/// agg switches plus every attached host) lands on shard `p % shards`,
/// core switch `c` on shard `c % shards`. Every cut link is then a core
/// uplink (agg<->core, or leaf<->spine without an agg tier), whose
/// propagation delay is the natural lookahead; host and edge<->agg
/// links are never cut. `shards` is clamped to the pod count (an empty
/// shard would only add barrier overhead).
Partition clos_partition(const sim::Clos& fabric, std::size_t shards);

/// The historical name of clos_partition, kept for existing callers.
inline Partition fat_tree_partition(const sim::Clos& fabric,
                                    std::size_t shards) {
  return clos_partition(fabric, shards);
}

}  // namespace dtdctcp::parsim
