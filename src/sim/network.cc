#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

namespace dtdctcp::sim {

Host& Network::add_host(std::string name) {
  auto host = std::make_unique<Host>(next_id(), std::move(name));
  Host& ref = *host;
  nodes_.push_back(std::move(host));
  hosts_.push_back(&ref);
  return ref;
}

Switch& Network::add_switch(std::string name) {
  auto sw = std::make_unique<Switch>(next_id(), std::move(name));
  Switch& ref = *sw;
  nodes_.push_back(std::move(sw));
  switches_.push_back(&ref);
  return ref;
}

std::size_t Network::attach_host(Host& host, Switch& sw, DataRate rate_bps,
                                 SimTime prop_delay,
                                 const QueueFactory& host_disc,
                                 const QueueFactory& switch_disc) {
  auto up = std::make_unique<Port>(sim_, rate_bps, prop_delay, host_disc());
  up->attach_peer(&sw);
  host.set_uplink(std::move(up));

  auto down = std::make_unique<Port>(sim_, rate_bps, prop_delay, switch_disc());
  down->attach_peer(&host);
  return sw.add_port(std::move(down));
}

std::pair<std::size_t, std::size_t> Network::connect_switches(
    Switch& a, Switch& b, DataRate rate_bps, SimTime prop_delay,
    const QueueFactory& a_disc, const QueueFactory& b_disc) {
  auto ab = std::make_unique<Port>(sim_, rate_bps, prop_delay, a_disc());
  ab->attach_peer(&b);
  const std::size_t ia = a.add_port(std::move(ab));

  auto ba = std::make_unique<Port>(sim_, rate_bps, prop_delay, b_disc());
  ba->attach_peer(&a);
  const std::size_t ib = b.add_port(std::move(ba));
  return {ia, ib};
}

void Network::rebuild_routes(const PortFilter& usable,
                             const SwitchFilter& write) {
  // Shortest-path routing with equal-cost multipath. A switch's group
  // for host H is every usable port that leads to H directly (on an
  // attachment switch of H) or to a switch one hop closer to H, in
  // ascending order; one-port groups degenerate to plain forwarding.
  //
  // The distances to H depend only on H's seeds, the switches with a
  // usable port to H, so hosts with the same seeds (every host behind
  // one edge switch) share one multi-source backward BFS, and away from
  // the seeds one group per switch, stored once in its pool. The
  // topology is read once into a dense view: ports numbered switch by
  // switch, each peer looked up in the node table, each filter
  // evaluated once.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t n_sw = switches_.size();
  const std::size_t n_host = hosts_.size();

  std::vector<std::uint32_t> sw_index(nodes_.size(), kNone);
  std::vector<std::uint32_t> host_index(nodes_.size(), kNone);
  for (std::size_t s = 0; s < n_sw; ++s) {
    sw_index[switches_[s]->id()] = static_cast<std::uint32_t>(s);
  }
  for (std::size_t h = 0; h < n_host; ++h) {
    host_index[hosts_[h]->id()] = static_cast<std::uint32_t>(h);
  }

  struct PortView {
    std::uint32_t owner;        // switch index
    std::uint32_t peer_switch;  // switch index, or kNone
    std::uint32_t peer_host;    // host index, or kNone
    bool usable;
  };
  std::vector<std::uint32_t> first_port(n_sw + 1, 0);
  for (std::size_t s = 0; s < n_sw; ++s) {
    first_port[s + 1] =
        first_port[s] + static_cast<std::uint32_t>(switches_[s]->port_count());
  }
  std::vector<PortView> ports(first_port[n_sw]);
  std::vector<char> writes(n_sw);
  std::vector<std::uint32_t> host_port_begin(n_host + 1, 0);
  for (std::size_t s = 0; s < n_sw; ++s) {
    Switch& sw = *switches_[s];
    writes[s] = write == nullptr || write(sw);
    for (std::size_t p = 0; p < sw.port_count(); ++p) {
      Node* peer = sw.port(p).peer();
      assert(peer != nullptr && "dangling port");
      const NodeId id = peer->id();
      const bool ours = id < nodes_.size() && nodes_[id].get() == peer;
      PortView& v = ports[first_port[s] + p];
      v.owner = static_cast<std::uint32_t>(s);
      v.peer_switch = ours ? sw_index[id] : kNone;
      v.peer_host = ours ? host_index[id] : kNone;
      v.usable = usable == nullptr || usable(sw, p);
      if (v.usable && v.peer_host != kNone) ++host_port_begin[v.peer_host + 1];
    }
  }

  // Each host's usable direct ports (ascending), and from them its
  // seeds (ascending, distinct).
  for (std::size_t h = 0; h < n_host; ++h) {
    host_port_begin[h + 1] += host_port_begin[h];
  }
  std::vector<std::uint32_t> host_ports(host_port_begin[n_host]);
  {
    std::vector<std::uint32_t> fill(host_port_begin.begin(),
                                    host_port_begin.end() - 1);
    for (std::uint32_t i = 0; i < ports.size(); ++i) {
      if (ports[i].usable && ports[i].peer_host != kNone) {
        host_ports[fill[ports[i].peer_host]++] = i;
      }
    }
  }
  std::vector<std::uint32_t> seed_begin(n_host + 1, 0);
  std::vector<std::uint32_t> seeds;
  seeds.reserve(host_ports.size());
  for (std::size_t h = 0; h < n_host; ++h) {
    for (std::uint32_t i = host_port_begin[h]; i < host_port_begin[h + 1];
         ++i) {
      const std::uint32_t owner = ports[host_ports[i]].owner;
      if (seeds.size() == seed_begin[h] || seeds.back() != owner) {
        seeds.push_back(owner);
      }
    }
    seed_begin[h + 1] = static_cast<std::uint32_t>(seeds.size());
  }
  const auto seeds_of = [&](std::uint32_t h) {
    return std::span<const std::uint32_t>(seeds).subspan(
        seed_begin[h], seed_begin[h + 1] - seed_begin[h]);
  };

  // Hosts sorted by seeds, so each attachment set is one run:
  // order[set_begin[x] .. set_begin[x + 1]) are the hosts of set x.
  std::vector<std::uint32_t> order(n_host);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::ranges::lexicographical_compare(seeds_of(a), seeds_of(b));
  });
  std::vector<std::uint32_t> set_begin;
  set_begin.reserve(n_host + 1);
  for (std::uint32_t i = 0; i < n_host; ++i) {
    if (i == 0 || !std::ranges::equal(seeds_of(order[i]),
                                      seeds_of(order[i - 1]))) {
      set_begin.push_back(i);
    }
  }
  set_begin.push_back(static_cast<std::uint32_t>(n_host));
  const std::size_t n_sets = set_begin.size() - 1;

  // One backward BFS from each set's seeds; dist[x * n_sw + s] is
  // switch s's hop count to set x's hosts. `usable` is symmetric per
  // link, so filtering the outbound direction also keeps the BFS from
  // discovering peers across a down link.
  std::vector<std::uint32_t> dist(n_sets * n_sw, kNone);
  std::vector<std::uint32_t> frontier;
  frontier.reserve(n_sw);
  for (std::size_t x = 0; x < n_sets; ++x) {
    std::uint32_t* d = dist.data() + x * n_sw;
    const auto set_seeds = seeds_of(order[set_begin[x]]);
    frontier.assign(set_seeds.begin(), set_seeds.end());
    for (std::uint32_t s : set_seeds) d[s] = 1;
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      const std::uint32_t s = frontier[f];
      for (std::uint32_t i = first_port[s]; i < first_port[s + 1]; ++i) {
        const std::uint32_t peer = ports[i].peer_switch;
        if (peer == kNone || !ports[i].usable || d[peer] != kNone) continue;
        d[peer] = d[s] + 1;
        frontier.push_back(peer);
      }
    }
  }

  // Each written switch's table, built here and installed in one call.
  // Away from the seeds one group per set serves all of its hosts; on a
  // seed, a host's group is its own usable direct ports. The table is
  // replaced whole, so an unreachable host's entry is empty and its
  // packets hit the counted unrouted-drop guard. A switch's groups for
  // one set use each of its ports at most once, so its pool holds at
  // most one port count per set.
  std::size_t max_ports = 0;
  for (const Switch* sw : switches_) {
    max_ports = std::max(max_ports, sw->port_count());
  }
  std::vector<Switch::RouteEntry> table;
  std::vector<std::uint32_t> pool;
  pool.reserve(n_sets * max_ports);
  for (std::uint32_t s = 0; s < n_sw; ++s) {
    if (!writes[s]) continue;
    table.assign(nodes_.size(), {});
    pool.clear();
    for (std::size_t x = 0; x < n_sets; ++x) {
      const std::uint32_t* d = dist.data() + x * n_sw;
      const std::span<const std::uint32_t> set(
          order.data() + set_begin[x], set_begin[x + 1] - set_begin[x]);
      if (d[s] == 1) {
        for (std::uint32_t h : set) {
          const auto offset = static_cast<std::uint32_t>(pool.size());
          for (std::uint32_t i = host_port_begin[h];
               i < host_port_begin[h + 1]; ++i) {
            if (ports[host_ports[i]].owner == s) {
              pool.push_back(host_ports[i] - first_port[s]);
            }
          }
          table[hosts_[h]->id()] = {
              offset, static_cast<std::uint32_t>(pool.size()) - offset};
        }
        continue;
      }
      const auto offset = static_cast<std::uint32_t>(pool.size());
      if (d[s] != kNone) {
        for (std::uint32_t i = first_port[s]; i < first_port[s + 1]; ++i) {
          const std::uint32_t peer = ports[i].peer_switch;
          if (ports[i].usable && peer != kNone && d[peer] == d[s] - 1) {
            pool.push_back(i - first_port[s]);
          }
        }
      }
      const Switch::RouteEntry group{
          offset, static_cast<std::uint32_t>(pool.size()) - offset};
      for (std::uint32_t h : set) table[hosts_[h]->id()] = group;
    }
    switches_[s]->set_routes(table, pool);
  }
}

}  // namespace dtdctcp::sim
