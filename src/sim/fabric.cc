#include "sim/fabric.h"

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "queue/factory.h"

namespace dtdctcp::sim {

namespace {

void check_dim(const char* builder, std::size_t v, std::size_t max,
               const char* what) {
  if (v == 0 || v > max) {
    throw std::invalid_argument(std::string(builder) + ": " + what + "=" +
                                std::to_string(v) + " outside [1, " +
                                std::to_string(max) + "]");
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct LinkSpec {
  DataRate bps;
  SimTime delay;
};

/// Everything the one wiring loop needs; the builders derive it from
/// their own configs.
struct Wiring {
  ClosShape shape;
  LinkSpec host;
  LinkSpec edge_up;  ///< edge -> agg, or edge -> core with no agg tier
  LinkSpec agg_up;   ///< agg -> core
  EcmpMode ecmp;
  std::uint64_t ecmp_seed;
};

Clos wire_clos(const Wiring& w, const QueueFactory& switch_queue) {
  const ClosShape& s = w.shape;
  const bool two_tier = s.aggs_per_pod == 0;
  const std::size_t stripe = two_tier ? 0 : s.cores / s.aggs_per_pod;
  const FabricLink::Tier edge_tier =
      two_tier ? FabricLink::Tier::kEdgeCore : FabricLink::Tier::kEdgeAgg;

  Clos out;
  out.cfg = s;
  out.net = std::make_unique<Network>();
  Network& net = *out.net;

  out.cores.reserve(s.cores);
  out.aggs.reserve(s.pods * s.aggs_per_pod);
  out.edges.reserve(s.pods * s.edges_per_pod);
  out.hosts.reserve(s.pods * s.hosts_per_pod());

  const auto host_nic = queue::drop_tail(0, 0);
  const auto link = [&](Switch& a, Switch& b, const LinkSpec& spec,
                        FabricLink::Tier tier) {
    const auto [ap, bp] = net.connect_switches(a, b, spec.bps, spec.delay,
                                               switch_queue, switch_queue);
    out.links.push_back({&a, ap, &b, bp, tier});
  };

  for (std::size_t c = 0; c < s.cores; ++c) {
    out.cores.push_back(&net.add_switch(numbered("core", c)));
  }
  for (std::size_t p = 0; p < s.pods; ++p) {
    const std::string pod = numbered("p", p) + "_";
    for (std::size_t j = 0; j < s.aggs_per_pod; ++j) {
      out.aggs.push_back(&net.add_switch(numbered(pod + "agg", j)));
    }
    const std::span<Switch* const> uplinks =
        two_tier ? std::span<Switch* const>(out.cores)
                 : std::span<Switch* const>(out.aggs).last(s.aggs_per_pod);
    for (std::size_t e = 0; e < s.edges_per_pod; ++e) {
      Switch& edge = net.add_switch(numbered(pod + "edge", e));
      out.edges.push_back(&edge);
      // Uplinks first, so an edge's uplinks are its lowest ports and
      // each upper switch's edge-facing ports precede its own uplinks.
      for (Switch* up : uplinks) link(edge, *up, w.edge_up, edge_tier);
      for (std::size_t h = 0; h < s.hosts_per_edge; ++h) {
        Host& host = net.add_host(numbered(numbered(pod + "e", e) + "_h", h));
        net.attach_host(host, edge, w.host.bps, w.host.delay, host_nic,
                        switch_queue);
        out.hosts.push_back(&host);
      }
    }
    // Agg j -> cores [j*stripe, (j+1)*stripe): the canonical striping.
    for (std::size_t j = 0; j < s.aggs_per_pod; ++j) {
      for (std::size_t c = 0; c < stripe; ++c) {
        link(*uplinks[j], *out.cores[j * stripe + c], w.agg_up,
             FabricLink::Tier::kAggCore);
      }
    }
  }

  // kLegacy keeps salt 0 (the Switch default). kBalanced salts each
  // switch independently; kPolarized gives every switch one non-zero
  // salt, so each tier repeats the previous tier's hash decision and
  // traffic collapses onto single uplinks.
  if (w.ecmp != EcmpMode::kLegacy) {
    for (const auto* tier : {&out.cores, &out.aggs, &out.edges}) {
      for (Switch* sw : *tier) {
        std::uint64_t salt =
            w.ecmp == EcmpMode::kPolarized
                ? splitmix64(w.ecmp_seed) | 1
                : splitmix64(w.ecmp_seed ^
                             (static_cast<std::uint64_t>(sw->id()) + 1));
        if (salt == 0) salt = 1;  // 0 would mean "unsalted" on this switch
        sw->set_ecmp_salt(salt);
      }
    }
  }

  out.link_down.assign(out.links.size(), 0);
  net.build_routes();
  return out;
}

}  // namespace

std::size_t Clos::set_link_state(std::size_t link, bool up, SimTime now) {
  return apply_link_event(link_down, link, up, now, nullptr);
}

std::size_t Clos::apply_link_event(
    std::vector<char>& down, std::size_t link, bool up, SimTime now,
    const std::function<bool(const Switch&)>& mine) {
  const std::size_t idx = link % links.size();
  const char want = up ? 0 : 1;
  if (down[idx] == want) return 0;  // idempotent: no state change
  down[idx] = want;
  rebuild_routes(down, mine);
  if (up) return 0;
  // Interface disabled: drain both endpoint queues (owned side only in
  // sharded runs). Packets already on the wire still deliver.
  const FabricLink& l = links[idx];
  std::size_t dropped = 0;
  if (mine == nullptr || mine(*l.a)) dropped += l.a->port(l.a_port).drop_queued(now);
  if (mine == nullptr || mine(*l.b)) dropped += l.b->port(l.b_port).drop_queued(now);
  return dropped;
}

void Clos::rebuild_routes(const std::vector<char>& down,
                          const std::function<bool(const Switch&)>& mine) {
  // Collect the down (switch, port) endpoints once; the filter is a
  // linear scan over them (the down set is tiny in practice).
  std::vector<std::pair<const Switch*, std::size_t>> blocked;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!down[i]) continue;
    blocked.emplace_back(links[i].a, links[i].a_port);
    blocked.emplace_back(links[i].b, links[i].b_port);
  }
  Network::PortFilter usable;
  if (!blocked.empty()) {
    usable = [blocked = std::move(blocked)](const Switch& sw, std::size_t p) {
      for (const auto& [bsw, bp] : blocked) {
        if (bsw == &sw && bp == p) return false;
      }
      return true;
    };
  }
  net->rebuild_routes(usable, mine);
}

Clos build_leaf_spine(const LeafSpineConfig& cfg,
                      const QueueFactory& switch_queue) {
  check_dim("leaf_spine", cfg.spines, LeafSpineConfig::kMaxSpines, "spines");
  check_dim("leaf_spine", cfg.leaves, LeafSpineConfig::kMaxLeaves, "leaves");
  check_dim("leaf_spine", cfg.hosts_per_leaf,
            LeafSpineConfig::kMaxHostsPerLeaf, "hosts_per_leaf");
  // Each leaf is a one-edge pod with no agg tier; the spines are cores.
  return wire_clos({{cfg.leaves, 1, 0, cfg.spines, cfg.hosts_per_leaf},
                    {cfg.host_link_bps, cfg.host_link_delay},
                    {cfg.fabric_link_bps, cfg.fabric_link_delay},
                    {},
                    EcmpMode::kLegacy,
                    0},
                   switch_queue);
}

Clos build_fat_tree(const FatTreeConfig& cfg,
                    const QueueFactory& switch_queue) {
  if (cfg.k == 0 || cfg.k % 2 != 0 || cfg.k > FatTreeConfig::kMaxK) {
    throw std::invalid_argument("fat_tree: k=" + std::to_string(cfg.k) +
                                " must be even and in [2, " +
                                std::to_string(FatTreeConfig::kMaxK) + "]");
  }
  check_dim("fat_tree", cfg.edge_hosts(), FatTreeConfig::kMaxHostsPerEdge,
            "hosts_per_edge");
  const std::size_t r = cfg.radix();
  return wire_clos({{cfg.k, r, r, r * r, cfg.edge_hosts()},
                    {cfg.host_link_bps, cfg.host_link_delay},
                    {cfg.edge_agg_bps, cfg.edge_agg_delay},
                    {cfg.agg_core_bps, cfg.agg_core_delay},
                    cfg.ecmp,
                    cfg.ecmp_seed},
                   switch_queue);
}

}  // namespace dtdctcp::sim
