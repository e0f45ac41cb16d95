#include "parsim/fabric.h"

#include <bit>
#include <chrono>
#include <memory>
#include <vector>

#include "hybrid/fluid_background.h"
#include "queue/factory.h"
#include "stats/percentile.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace dtdctcp::parsim {

namespace {

/// FNV-1a, word at a time; doubles hash by bit pattern so the digest is
/// exact at full precision.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const sim::Counters& c) {
    mix(c.offered);
    mix(c.enqueued);
    mix(c.dequeued);
    mix(c.bypassed);
    mix(c.dropped);
    mix(c.marked);
    mix(c.sent_packets);
    mix(c.sent_bytes);
    mix(c.unrouted_dropped);
    mix(c.unbound_dropped);
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

FabricResult run_fabric(const FabricConfig& cfg) {
  FabricResult out;

  // One rule for every switch egress and every fluid aggregate.
  const auto marking = queue::MarkingRule::dctcp(cfg.mark_threshold_packets);
  sim::QueueFactory switch_queue = marking.queue_factory(0, cfg.buffer_packets);
  if (cfg.priority_classes >= 2) {
    switch_queue = queue::multi_queue(cfg.priority_classes, switch_queue,
                                      cfg.sched_policy, cfg.wrr_weights);
  }

  const bool fat = cfg.topology == FabricTopology::kFatTree;
  sim::LeafSpine ls;
  sim::FatTree ft;
  if (fat) {
    ft = sim::build_fat_tree(cfg.fat_tree, switch_queue);
  } else {
    ls = sim::build_leaf_spine(cfg.fabric, switch_queue);
  }
  sim::Network& net = fat ? *ft.net : *ls.net;
  const std::vector<sim::Host*>& hosts = fat ? ft.hosts : ls.hosts;

  // Sharding scaffolding first, so connections can bind each endpoint
  // to its host's shard simulator.
  std::unique_ptr<ShardedNetwork> sharded;
  std::unique_ptr<ShardRunner> runner;
  if (cfg.shards >= 1) {
    sharded = std::make_unique<ShardedNetwork>(
        net, fat ? fat_tree_partition(ft, cfg.shards)
                 : leaf_spine_partition(ls, cfg.fabric, cfg.shards));
    ShardRunnerOptions opts;
    opts.check = cfg.check;
    opts.check_cfg = cfg.check_cfg;
    runner = std::make_unique<ShardRunner>(*sharded, opts);
  }

  // Hybrid fluid background (leaf-spine only): one aggregate per leaf
  // on its first spine uplink (port 0 — connect_switches wires spine
  // uplinks before host ports). Attached after the sharding scaffolding
  // so each aggregate's coupling timer lands on the simulator that owns
  // its port: all hybrid state is shard-local and digest-stable.
  // Declared after ls/ft so the aggregates are destroyed first and
  // detach their gauges from live ports.
  std::vector<std::unique_ptr<hybrid::FluidBackground>> aggregates;
  if (cfg.hybrid_background && !fat) {
    hybrid::FluidBackgroundConfig hcfg;
    hcfg.flows = cfg.hybrid_flows;
    hcfg.rtt = cfg.hybrid_rtt;
    hcfg.marking = marking;
    hcfg.horizon = cfg.hybrid_horizon;
    aggregates.reserve(ls.leaves.size());
    for (sim::Switch* leaf : ls.leaves) {
      auto agg = std::make_unique<hybrid::FluidBackground>(
          hcfg, cfg.fabric.fabric_link_bps);
      agg->attach(leaf->port(0));
      aggregates.push_back(std::move(agg));
    }
  }

  // Scheduled link failures (fat-tree only). Serial runs mutate the
  // fabric's own down set; sharded runs give each shard its own copy
  // and apply the same event on every shard's simulator at the same
  // simulated time — each shard rewrites only the switches it owns and
  // drains only the down-link ports it owns.
  std::vector<std::vector<char>> down_sets;
  if (fat && !cfg.link_events.empty() && !ft.links.empty()) {
    sim::FatTree* tree = &ft;
    if (sharded != nullptr) {
      down_sets.assign(sharded->shards(),
                       std::vector<char>(ft.links.size(), 0));
      ShardedNetwork* sn = sharded.get();
      for (const sim::LinkEvent& ev : cfg.link_events) {
        for (std::size_t s = 0; s < sharded->shards(); ++s) {
          std::vector<char>* down = &down_sets[s];
          sharded->shard_sim(s).at(ev.time, [tree, sn, down, s, ev] {
            tree->apply_link_event(
                *down, ev.link, ev.up, ev.time,
                [sn, s](const sim::Switch& sw) {
                  return sn->shard_of(sw.id()) == s;
                });
          });
        }
      }
    } else {
      for (const sim::LinkEvent& ev : cfg.link_events) {
        net.sim().at(ev.time,
                     [tree, ev] { tree->set_link_state(ev.link, ev.up, ev.time); });
      }
    }
  }

  // Permutation traffic, host order = flow id order: cross-rack for
  // leaf-spine, cross-pod for fat-trees (every flow exercises the core).
  const std::size_t n = hosts.size();
  const std::size_t group =
      fat ? ft.cfg.hosts_per_pod() : cfg.fabric.hosts_per_leaf;
  Rng rng(cfg.seed);
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  conns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Host& src = *hosts[i];
    sim::Host& dst = *hosts[(i + group) % n];
    tcp::TcpConfig flow_cfg = cfg.tcp;
    if (cfg.priority_classes >= 2) {
      flow_cfg.priority = static_cast<std::uint8_t>(i % cfg.priority_classes);
    }
    auto conn =
        sharded != nullptr
            ? std::make_unique<tcp::Connection>(
                  net, sharded->sim_for(src.id()), sharded->sim_for(dst.id()),
                  src, dst, flow_cfg, cfg.segments_per_flow)
            : std::make_unique<tcp::Connection>(net, src, dst, flow_cfg,
                                                cfg.segments_per_flow);
    conn->start_at(cfg.start_spread > 0.0
                       ? rng.uniform(0.0, cfg.start_spread)
                       : 0.0);
    conns.push_back(std::move(conn));
  }
  out.flows = n;

  const auto t0 = std::chrono::steady_clock::now();
  if (runner != nullptr) {
    runner->run();
    out.ledger_ok = runner->finalize();
    out.telemetry = runner->telemetry();
    for (const auto& c : runner->checkers()) {
      if (c != nullptr) out.check_violations += c->violation_count();
    }
    for (std::size_t s = 0; s < sharded->shards(); ++s) {
      out.events += sharded->shard_sim(s).events_processed();
    }
  } else {
    net.sim().run();
    out.events = net.sim().events_processed();
  }
  out.wall_seconds = seconds_since(t0);

  Fnv digest;
  stats::PercentileTracker fct_tracker;
  for (const auto& conn : conns) {
    const tcp::TcpSender& snd = conn->sender();
    if (snd.completed()) {
      ++out.completed;
      const double fct = snd.completion_time() - snd.start_time();
      out.sum_fct += fct;
      if (fct > out.max_fct) out.max_fct = fct;
      fct_tracker.add(fct);
    }
    digest.mix(static_cast<std::uint64_t>(conn->flow()));
    digest.mix(snd.completion_time());
    digest.mix(static_cast<std::uint64_t>(snd.retransmissions()));
    digest.mix(static_cast<std::uint64_t>(snd.timeouts()));
    digest.mix(snd.alpha());
    digest.mix(static_cast<std::uint64_t>(conn->receiver().bytes_received()));
  }
  out.p99_fct = fct_tracker.p99();
  auto fold_switch = [&](sim::Switch* sw, bool mix_link_down) {
    const sim::Counters c = sw->counters();
    digest.mix(c);
    out.marks += c.marked;
    out.drops += c.dropped + c.unrouted_dropped;
    std::uint64_t down_drops = 0;
    for (std::size_t p = 0; p < sw->port_count(); ++p) {
      out.fabric_packets += sw->port(p).packets_sent();
      down_drops += sw->port(p).link_down_drops();
    }
    out.link_down_drops += down_drops;
    // Folded only on the fat-tree path so leaf-spine digests stay
    // bit-compatible with the pre-fabric harness.
    if (mix_link_down) digest.mix(down_drops);
  };
  if (fat) {
    for (sim::Switch* sw : ft.edges) fold_switch(sw, true);
    for (sim::Switch* sw : ft.aggs) fold_switch(sw, true);
    for (sim::Switch* sw : ft.cores) fold_switch(sw, true);
  } else {
    for (sim::Switch* sw : ls.leaves) fold_switch(sw, false);
    for (sim::Switch* sw : ls.spines) fold_switch(sw, false);
  }
  // Fluid aggregate state joins the fingerprint only when the hybrid
  // background is actually active, so inert-aggregate digests stay
  // bit-compatible with hybrid-off runs.
  if (!aggregates.empty()) {
    for (const auto& a : aggregates) {
      out.hybrid_ticks += a->ticks();
      out.hybrid_share_mean += a->mean_share();
      if (cfg.hybrid_flows > 0.0) {
        digest.mix(a->ticks());
        digest.mix(a->queue_pkts());
        digest.mix(a->available_fraction());
        if (a->model() != nullptr) {
          digest.mix(a->model()->state().w);
          digest.mix(a->model()->state().alpha);
        }
      }
    }
    out.hybrid_share_mean /= static_cast<double>(aggregates.size());
  }
  out.digest = digest.h;
  return out;
}

}  // namespace dtdctcp::parsim
