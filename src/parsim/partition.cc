#include "parsim/partition.h"

#include <algorithm>

#include "sim/fabric.h"

namespace dtdctcp::parsim {

Partition Partition::single(std::size_t node_count) {
  Partition p;
  p.shards = 1;
  p.shard_of.assign(node_count, 0);
  return p;
}

Partition clos_partition(const sim::Clos& fabric, std::size_t shards) {
  const std::size_t node_count = fabric.net->nodes().size();
  if (shards <= 1) return Partition::single(node_count);
  const sim::ClosShape& shape = fabric.cfg;
  shards = std::min(shards, shape.pods);

  Partition p;
  p.shards = shards;
  p.shard_of.assign(node_count, 0);
  // Each tier lists its nodes pod by pod, `per_pod` at a time; cores
  // round-robin one by one.
  const auto by_pod = [&](const auto& nodes, std::size_t per_pod) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      p.shard_of[nodes[i]->id()] =
          static_cast<std::uint32_t>(i / per_pod % shards);
    }
  };
  by_pod(fabric.cores, 1);
  by_pod(fabric.aggs, shape.aggs_per_pod);
  by_pod(fabric.edges, shape.edges_per_pod);
  by_pod(fabric.hosts, shape.hosts_per_pod());
  return p;
}

}  // namespace dtdctcp::parsim
