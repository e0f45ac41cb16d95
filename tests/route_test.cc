// Differential test of the route builder. Network::rebuild_routes runs
// one backward BFS per attachment set over a dense view of the
// topology; the per-destination BFS it replaced is kept below as the
// oracle. Every (switch, host) group must match member for member, in
// ascending port order, on every topology and under every filter. The
// storage tests at the end count this executable's global allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "queue/factory.h"
#include "sim/fabric.h"
#include "sim/network.h"
#include "sim/star.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line: inlined into a delete-expression, free() would read to
// GCC as freeing memory that came from operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable non-aligned form goes through malloc and free, so
// the pairs still match under AddressSanitizer's new/delete checks.
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace dtdctcp {
namespace {

using Group = std::vector<std::uint32_t>;
/// tables[s][h]: switch s's group for host h, in node order.
using Tables = std::vector<std::vector<Group>>;
/// One switch-side end of a link: (switch, egress port).
using Endpoint = std::pair<const sim::Switch*, std::size_t>;

struct World {
  std::string name;
  /// The topology. A star or random graph uses only `clos.net`.
  sim::Clos clos;
  std::vector<sim::Switch*> switches;  ///< node order
  std::vector<sim::Host*> hosts;       ///< node order
  /// The failable links, each as its switch-side endpoints (a host link
  /// has one).
  std::vector<std::vector<Endpoint>> links;
  /// The port-0 filter of LeafSpine.RerouteHasNoSpineZeroAssumption,
  /// carried over to this topology.
  std::vector<Endpoint> port0;
  /// Links whose loss cuts `pod_switches` and `pod_hosts` off from the
  /// rest of the topology.
  std::vector<std::size_t> pod_cut;
  std::vector<sim::Switch*> pod_switches;
  std::vector<sim::Host*> pod_hosts;

  sim::Network& net() const { return *clos.net; }
};

void index_nodes(World& w) {
  for (const auto& node : w.net().nodes()) {
    if (auto* sw = dynamic_cast<sim::Switch*>(node.get())) {
      w.switches.push_back(sw);
    } else if (auto* host = dynamic_cast<sim::Host*>(node.get())) {
      w.hosts.push_back(host);
    }
  }
}

/// The per-destination route builder as it stood before attachment
/// sets, verbatim apart from the last step: it writes each group into
/// `tables` where it used to install it on the switch.
void oracle_routes(const World& w, const sim::Network::PortFilter& usable,
                   const sim::Network::SwitchFilter& write, Tables& tables) {
  using sim::Host;
  using sim::Node;
  using sim::NodeId;
  using sim::Switch;
  constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
  const auto port_ok = [&](Switch* sw, std::size_t p) {
    return usable == nullptr || usable(*sw, p);
  };

  for (std::size_t h = 0; h < w.hosts.size(); ++h) {
    Host* dst = w.hosts[h];
    std::unordered_map<NodeId, std::size_t> dist;  // switch id -> hops to dst
    std::deque<Switch*> frontier;

    // Seed: switches with a port directly to the destination host.
    for (Switch* sw : w.switches) {
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        if (sw->port(p).peer() == dst && port_ok(sw, p)) {
          dist[sw->id()] = 1;
          frontier.push_back(sw);
          break;
        }
      }
    }
    while (!frontier.empty()) {
      Switch* sw = frontier.front();
      frontier.pop_front();
      const std::size_t d = dist[sw->id()];
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        Node* peer = sw->port(p).peer();
        auto* peer_sw = dynamic_cast<Switch*>(peer);
        if (peer_sw == nullptr) continue;
        if (!port_ok(sw, p)) continue;
        if (dist.count(peer_sw->id())) continue;
        dist[peer_sw->id()] = d + 1;
        frontier.push_back(peer_sw);
      }
    }

    for (std::size_t s = 0; s < w.switches.size(); ++s) {
      Switch* sw = w.switches[s];
      if (write != nullptr && !write(*sw)) continue;
      const auto it = dist.find(sw->id());
      const std::size_t d = it == dist.end() ? kUnreachable : it->second;
      std::vector<std::size_t> group;
      if (d != kUnreachable) {
        for (std::size_t p = 0; p < sw->port_count(); ++p) {
          if (!port_ok(sw, p)) continue;
          Node* peer = sw->port(p).peer();
          if (peer == dst && d == 1) {
            group.push_back(p);
            continue;
          }
          auto* peer_sw = dynamic_cast<Switch*>(peer);
          if (peer_sw == nullptr) continue;
          const auto pit = dist.find(peer_sw->id());
          if (pit != dist.end() && pit->second + 1 == d) group.push_back(p);
        }
      }
      tables[s][h].assign(group.begin(), group.end());
    }
  }
}

Tables installed(const World& w) {
  Tables t(w.switches.size());
  for (std::size_t s = 0; s < w.switches.size(); ++s) {
    for (const sim::Host* host : w.hosts) {
      const auto route = w.switches[s]->route(host->id());
      t[s].emplace_back(route.begin(), route.end());
    }
  }
  return t;
}

sim::Network::PortFilter blocking(std::vector<Endpoint> down) {
  if (down.empty()) return nullptr;
  return [down = std::move(down)](const sim::Switch& sw, std::size_t p) {
    for (const auto& [bsw, bp] : down) {
      if (bsw == &sw && bp == p) return false;
    }
    return true;
  };
}

std::vector<Endpoint> endpoints(const World& w,
                                const std::vector<std::size_t>& links) {
  std::vector<Endpoint> out;
  for (std::size_t l : links) {
    out.insert(out.end(), w.links[l].begin(), w.links[l].end());
  }
  return out;
}

/// Rebuilds the routes with both filters and checks every installed
/// group against the oracle run from the tables as they were. Returns
/// the installed tables.
Tables rebuild_and_compare(const World& w,
                           const sim::Network::PortFilter& usable,
                           const sim::Network::SwitchFilter& write,
                           const std::string& what) {
  Tables want = installed(w);
  oracle_routes(w, usable, write, want);
  w.net().rebuild_routes(usable, write);
  Tables got = installed(w);
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < want.size(); ++s) {
    for (std::size_t h = 0; h < want[s].size(); ++h) {
      if (want[s][h] == got[s][h]) continue;
      if (mismatches++ == 0) {
        ADD_FAILURE() << w.name << ", " << what << ": "
                      << w.switches[s]->name() << " -> "
                      << w.hosts[h]->name() << " has "
                      << got[s][h].size() << " members, the oracle "
                      << want[s][h].size();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << w.name << ", " << what;
  return got;
}

// ---- Topologies ------------------------------------------------------------

World from_clos(std::string name, sim::Clos clos, std::size_t pod) {
  World w;
  w.name = std::move(name);
  w.clos = std::move(clos);
  index_nodes(w);
  const sim::Clos& c = w.clos;
  for (const sim::FabricLink& l : c.links) {
    w.links.push_back({{l.a, l.a_port}, {l.b, l.b_port}});
  }
  // Edge 0's port 0 and the first upper switch's port 0: one link.
  const sim::Switch* upper = c.aggs.empty() ? c.cores.front() : c.aggs.front();
  w.port0 = {{c.edges.front(), 0}, {upper, 0}};

  const sim::ClosShape& shape = c.cfg;
  for (std::size_t e = 0; e < shape.edges_per_pod; ++e) {
    w.pod_switches.push_back(c.edges[pod * shape.edges_per_pod + e]);
  }
  for (std::size_t j = 0; j < shape.aggs_per_pod; ++j) {
    w.pod_switches.push_back(c.aggs[pod * shape.aggs_per_pod + j]);
  }
  for (std::size_t h = 0; h < shape.hosts_per_pod(); ++h) {
    w.pod_hosts.push_back(c.hosts[pod * shape.hosts_per_pod() + h]);
  }
  // The pod's links up to the cores: agg-core, or leaf-spine links.
  for (std::size_t i = 0; i < c.links.size(); ++i) {
    const sim::FabricLink& l = c.links[i];
    if (l.tier == sim::FabricLink::Tier::kEdgeAgg) continue;
    for (const sim::Switch* sw : w.pod_switches) {
      if (l.a == sw) w.pod_cut.push_back(i);
    }
  }
  return w;
}

World star40() {
  World w;
  w.name = "star40";
  w.clos.net = std::make_unique<sim::Network>();
  const sim::Star star =
      sim::build_star(w.net(), {40, 1e9, 10e9, 25e-6}, queue::drop_tail(0, 0));
  index_nodes(w);
  // No switch-switch links: the failable set is the host links.
  for (std::size_t p = 0; p < star.sw->port_count(); ++p) {
    w.links.push_back({{star.sw, p}});
  }
  w.port0 = {{star.sw, 0}};
  w.pod_cut = {1};  // sender 0's link cuts sender 0 off
  w.pod_hosts = {star.senders[0]};
  return w;
}

/// A seeded random switch graph: a ring (a cycle) through some of the
/// switches, random extra links with at least one parallel pair, hosts
/// on random switches, one host wired to two switches, one host with
/// no link; switches and hosts are added in a random interleaving. Host
/// links are failable too, so failures change hosts' attachment sets.
World random_graph(std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&](std::size_t lo, std::size_t hi) {  // in [lo, hi]
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  World w;
  w.name = sim::numbered("random", seed);
  w.clos.net = std::make_unique<sim::Network>();
  sim::Network& net = w.net();
  const std::size_t n_sw = pick(3, 10);
  const std::size_t n_host = pick(4, 12);
  std::vector<sim::Switch*> sws;
  std::vector<sim::Host*> hosts;
  while (sws.size() < n_sw || hosts.size() < n_host) {
    const bool add_switch =
        hosts.size() == n_host ||
        (sws.size() < n_sw && pick(0, 1) == 0);
    if (add_switch) {
      sws.push_back(&net.add_switch(sim::numbered("sw", sws.size())));
    } else {
      hosts.push_back(&net.add_host(sim::numbered("h", hosts.size())));
    }
  }
  index_nodes(w);

  const auto q = queue::drop_tail(0, 0);
  const auto connect = [&](std::size_t a, std::size_t b) {
    const auto [pa, pb] =
        net.connect_switches(*sws[a], *sws[b], 1e9, 1e-6, q, q);
    w.links.push_back({{sws[a], pa}, {sws[b], pb}});
  };
  const std::size_t ring = pick(3, n_sw);
  for (std::size_t i = 0; i < ring; ++i) connect(i, (i + 1) % ring);
  connect(0, 1);  // parallel to the ring's first link
  for (std::size_t i = pick(0, n_sw); i > 0; --i) {
    const std::size_t a = pick(0, n_sw - 1);
    const std::size_t b = pick(0, n_sw - 1);
    if (a != b) connect(a, b);
  }
  w.port0 = w.links.front();
  for (std::size_t i = 0; i < w.links.size(); ++i) {
    if (w.links[i][0].first == sws[0] || w.links[i][1].first == sws[0]) {
      w.pod_cut.push_back(i);
    }
  }
  w.pod_switches = {sws[0]};

  const auto attach = [&](std::size_t h, std::size_t s) {
    const std::size_t p = net.attach_host(*hosts[h], *sws[s], 1e9, 1e-6, q, q);
    w.links.push_back({{sws[s], p}});
  };
  attach(0, 0);
  attach(0, pick(1, n_sw - 1));
  for (std::size_t h = 1; h + 1 < n_host; ++h) {
    const std::size_t s = pick(0, n_sw - 1);
    attach(h, s);
    if (s == 0) w.pod_hosts.push_back(hosts[h]);
  }
  // hosts.back() stays unattached: every group toward it is empty.
  net.build_routes();
  return w;
}

// ---- The conditions --------------------------------------------------------

template <typename T>
bool contains(const std::vector<T*>& v, const T* x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// A seeded down-set of 1-4 failable links.
std::vector<std::size_t> down_set(const World& w, Rng& rng) {
  std::vector<std::size_t> down;
  const auto n = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < n; ++i) {
    down.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.links.size()) - 1)));
  }
  return down;
}

void check_every_condition(const World& w, std::uint64_t seed) {
  rebuild_and_compare(w, nullptr, nullptr, "no filter");

  Rng rng(seed);
  for (int i = 0; i < 100; ++i) {
    rebuild_and_compare(w, blocking(endpoints(w, down_set(w, rng))), nullptr,
                        "down-set " + std::to_string(i));
  }

  // One pod cut off: nothing routes between it and the rest.
  const Tables cut = rebuild_and_compare(
      w, blocking(endpoints(w, w.pod_cut)), nullptr, "pod cut off");
  std::vector<char> attached_to_pod(w.hosts.size(), 0);
  for (sim::Switch* sw : w.pod_switches) {
    for (std::size_t p = 0; p < sw->port_count(); ++p) {
      for (std::size_t h = 0; h < w.hosts.size(); ++h) {
        if (sw->port(p).peer() == w.hosts[h]) attached_to_pod[h] = 1;
      }
    }
  }
  for (std::size_t s = 0; s < w.switches.size(); ++s) {
    const bool in_pod = contains(w.pod_switches, w.switches[s]);
    for (std::size_t h = 0; h < w.hosts.size(); ++h) {
      const bool across = in_pod ? !attached_to_pod[h]
                                 : contains(w.pod_hosts, w.hosts[h]);
      if (across) {
        EXPECT_TRUE(cut[s][h].empty())
            << w.name << ": " << w.switches[s]->name()
            << " still routes across the cut to " << w.hosts[h]->name();
      }
    }
  }

  rebuild_and_compare(w, blocking(w.port0), nullptr, "port-0 filter");

  // Half the switches rewritten; the other half keep their tables.
  rebuild_and_compare(w, blocking(endpoints(w, down_set(w, rng))), nullptr,
                      "before the half rebuild");
  const Tables before = installed(w);
  std::vector<char> mine(w.net().nodes().size(), 0);
  for (std::size_t s = 0; s < w.switches.size(); s += 2) {
    mine[w.switches[s]->id()] = 1;
  }
  const Tables after = rebuild_and_compare(
      w, blocking(endpoints(w, down_set(w, rng))),
      [&](const sim::Switch& sw) { return mine[sw.id()] != 0; },
      "half the switches");
  for (std::size_t s = 1; s < w.switches.size(); s += 2) {
    EXPECT_EQ(after[s], before[s]) << w.name << ": " << w.switches[s]->name()
                                   << " outside the filter was rewritten";
  }

  // The two shards of a sharded run: after a link event each rewrites
  // only the half it owns. Together the halves must give one unfiltered
  // rebuild's tables, with the link down and again after it recovers.
  const sim::Network::SwitchFilter theirs = [&](const sim::Switch& sw) {
    return mine[sw.id()] == 0;
  };
  const std::vector<std::size_t> link = {down_set(w, rng).front()};
  for (const auto& [usable, state] :
       {std::pair{blocking(endpoints(w, link)), "link down"},
        std::pair{sim::Network::PortFilter{}, "link recovered"}}) {
    rebuild_and_compare(
        w, usable, [&](const sim::Switch& sw) { return mine[sw.id()] != 0; },
        std::string("first shard, ") + state);
    const Tables halves = rebuild_and_compare(
        w, usable, theirs, std::string("second shard, ") + state);
    w.net().rebuild_routes(usable, nullptr);
    EXPECT_TRUE(halves == installed(w))
        << w.name << ", " << state
        << ": the two halves differ from one unfiltered rebuild";
  }
}

TEST(Routes, StarMatchesPerDestinationBfs) {
  check_every_condition(star40(), 1);
}

TEST(Routes, StressLeafSpineMatchesPerDestinationBfs) {
  check_every_condition(
      from_clos("leaf-spine stress",
                sim::build_leaf_spine(sim::LeafSpineConfig::stress(),
                                      queue::drop_tail(0, 0)),
                1),
      2);
}

TEST(Routes, FatTreesMatchPerDestinationBfs) {
  sim::FatTreeConfig k4;
  k4.k = 4;
  check_every_condition(
      from_clos("fat-tree k=4", sim::build_fat_tree(k4, queue::drop_tail(0, 0)),
                1),
      3);
  // The perfbench shape: k=8, 8 hosts per edge, balanced ECMP.
  sim::FatTreeConfig k8;
  k8.k = 8;
  k8.hosts_per_edge = 8;
  k8.ecmp = sim::EcmpMode::kBalanced;
  check_every_condition(
      from_clos("fat-tree k=8 x8",
                sim::build_fat_tree(k8, queue::drop_tail(0, 0)), 5),
      4);
}

TEST(Routes, RandomSwitchGraphsMatchPerDestinationBfs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    check_every_condition(random_graph(seed), seed);
  }
}

TEST(Routes, FatTreeLinkDownAndUpRestoresTheTables) {
  sim::FatTreeConfig cfg;
  cfg.k = 4;
  World w = from_clos("fat-tree k=4",
                      sim::build_fat_tree(cfg, queue::drop_tail(0, 0)), 0);
  const Tables initial = installed(w);
  for (std::size_t i = 0; i < w.clos.links.size(); ++i) {
    Tables want = initial;
    oracle_routes(w, blocking(w.links[i]), nullptr, want);
    EXPECT_TRUE(want != initial) << "link " << i << " carries no route";
    w.clos.set_link_state(i, false, 0.0);
    EXPECT_TRUE(installed(w) == want) << "link " << i << " down";
    w.clos.set_link_state(i, true, 0.0);
    EXPECT_TRUE(installed(w) == initial) << "link " << i << " back up";
  }
}

// ---- Route storage ---------------------------------------------------------

/// A k-ary fat-tree with `hosts_per_edge` hosts on each edge switch,
/// wired through the Network API with no routes built yet.
void wire_fat_tree(sim::Network& net, std::size_t k,
                   std::size_t hosts_per_edge) {
  const auto q = queue::drop_tail(0, 0);
  const std::size_t r = k / 2;
  std::vector<sim::Switch*> cores;
  for (std::size_t c = 0; c < r * r; ++c) {
    cores.push_back(&net.add_switch(sim::numbered("core", c)));
  }
  for (std::size_t p = 0; p < k; ++p) {
    std::vector<sim::Switch*> aggs;
    for (std::size_t j = 0; j < r; ++j) {
      aggs.push_back(&net.add_switch(sim::numbered("agg", p * r + j)));
      for (std::size_t c = 0; c < r; ++c) {
        net.connect_switches(*aggs.back(), *cores[j * r + c], 1e9, 1e-6, q, q);
      }
    }
    for (std::size_t e = 0; e < r; ++e) {
      const std::size_t edge_index = p * r + e;
      sim::Switch& edge = net.add_switch(sim::numbered("edge", edge_index));
      for (sim::Switch* agg : aggs) {
        net.connect_switches(edge, *agg, 1e9, 1e-6, q, q);
      }
      for (std::size_t h = 0; h < hosts_per_edge; ++h) {
        sim::Host& host =
            net.add_host(sim::numbered("h", edge_index * hosts_per_edge + h));
        net.attach_host(host, edge, 1e9, 1e-6, q, q);
      }
    }
  }
}

/// A rebuild's own allocations: one per work array of the route
/// builder, and the link filter's copy of the down endpoints.
constexpr std::size_t kRebuildWorkArrays = 20;

TEST(Routes, FirstBuildAllocatesPerSwitchNotPerHost) {
  // k=8: 80 switches, and 256 hosts at 8 per edge switch.
  const auto first_build = [](std::size_t hosts_per_edge) {
    sim::Network net;
    wire_fat_tree(net, 8, hosts_per_edge);
    const std::size_t before = g_allocations.load();
    net.build_routes();
    return g_allocations.load() - before;
  };
  const std::size_t eight = first_build(8);
  EXPECT_EQ(eight, first_build(1)) << "route storage grows with the hosts";
  // Each switch allocates its table and its pool once.
  EXPECT_LE(eight, 2 * 80 + kRebuildWorkArrays);
}

TEST(Routes, LinkEventRebuildsAllocateABoundedAmount) {
  // A down/up pair is two rebuilds' work arrays, plus one larger pool on
  // each switch whose groups grew around the failure: up to k of them
  // (an edge-agg link makes every other pod's agg on that stripe route
  // through its edges too). The bound is the same on a 32-host k=4 and
  // a 256-host k=8 fat-tree.
  constexpr std::size_t kRegrownPools = 8;
  for (const std::size_t k : {4, 8}) {
    sim::FatTreeConfig cfg;
    cfg.k = k;
    cfg.hosts_per_edge = k;
    sim::Clos clos = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
    std::size_t most = 0;
    for (std::size_t i = 0; i < clos.links.size(); ++i) {
      const std::size_t before = g_allocations.load();
      clos.set_link_state(i, false, 0.0);
      clos.set_link_state(i, true, 0.0);
      most = std::max(most, g_allocations.load() - before);
    }
    EXPECT_LE(most, 2 * kRebuildWorkArrays + kRegrownPools) << "k=" << k;
  }
}

TEST(Routes, HostsOfOneAttachmentSetShareOnePoolRange) {
  sim::FatTreeConfig cfg;
  cfg.k = 8;
  cfg.hosts_per_edge = 8;
  const sim::Clos clos = sim::build_fat_tree(cfg, queue::drop_tail(0, 0));
  const std::size_t per_edge = clos.cfg.hosts_per_edge;
  std::size_t unshared = 0;
  for (const auto& node : clos.net->nodes()) {
    const auto* sw = dynamic_cast<const sim::Switch*>(node.get());
    if (sw == nullptr) continue;
    for (std::size_t e = 0; e < clos.edges.size(); ++e) {
      const sim::Host* const* hosts = clos.hosts.data() + e * per_edge;
      const auto first = sw->route(hosts[0]->id());
      ASSERT_FALSE(first.empty()) << sw->name() << " -> edge " << e;
      for (std::size_t h = 1; h < per_edge; ++h) {
        const auto route = sw->route(hosts[h]->id());
        if (sw == clos.edges[e]) {
          // A seed: each host's group is its own port.
          EXPECT_NE(route.data(), first.data()) << sw->name();
        } else if (route.data() != first.data() ||
                   route.size() != first.size()) {
          if (unshared++ == 0) {
            ADD_FAILURE() << sw->name() << ": host " << h << " of edge " << e
                          << " has a range of its own";
          }
        }
      }
    }
  }
  EXPECT_EQ(unshared, 0u);
}

}  // namespace
}  // namespace dtdctcp
