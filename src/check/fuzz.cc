#include "check/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "core/dumbbell.h"
#include "fluid/fluid_model.h"
#include "fluid/marking.h"
#include "hybrid/fluid_background.h"
#include "parsim/fabric.h"
#include "queue/factory.h"
#include "queue/multi_queue.h"
#include "sim/fabric.h"
#include "sim/leaf_spine.h"
#include "sim/network.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace dtdctcp::check {

namespace {

// Salt constants decorrelating the generator stream from the runtime
// stream (start times, pair selection) derived from the same seed.
constexpr std::uint64_t kGenSalt = 0x67656e5f73616c74ULL;   // "gen_salt"
constexpr std::uint64_t kRunSalt = 0x72756e5f73616c74ULL;   // "run_salt"
constexpr std::uint64_t kFluidSalt = 0x666c756964313163ULL;
constexpr std::uint64_t kLargeSalt = 0x6c617267655f6662ULL;  // "large_fb"

tcp::TcpConfig make_tcp(const FuzzScenario& sc) {
  tcp::TcpConfig cfg;
  cfg.mode = static_cast<tcp::CcMode>(sc.tcp_mode);
  cfg.sack_enabled = sc.sack;
  cfg.pacing = sc.pacing;
  cfg.delayed_ack = sc.delayed_ack;
  // Scenarios are short and finite; the paper-era 200 ms min-RTO would
  // dominate the virtual-time budget after any burst loss.
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  cfg.max_rto = 1.0;
  return cfg;
}

/// Everything a running scenario owns, destroyed (hooks firing) while
/// the CheckScope is still installed.
struct Rig {
  // The pool must be declared first: queues release their backlog into
  // it from their destructors when the network is torn down.
  std::unique_ptr<sim::SharedBufferPool> pool;
  std::unique_ptr<sim::Network> owned_net;  ///< dumbbell / incast
  sim::LeafSpine fabric;                    ///< leaf-spine (owns its net)
  /// Fat-tree (owns its net). Heap-allocated so link-event closures
  /// capturing the FatTree* stay valid when the Rig is moved out of
  /// build_rig.
  std::unique_ptr<sim::FatTree> fat;
  sim::Network* net = nullptr;
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  /// Declared last so it is destroyed first: its destructor detaches
  /// the coupling gauges from the still-live bottleneck port.
  std::unique_ptr<hybrid::FluidBackground> fluid_bg;
};

Rig build_rig(const FuzzScenario& sc) {
  Rig rig;
  Rng rng(splitmix64(sc.seed ^ kRunSalt));
  const tcp::TcpConfig tcp_cfg = make_tcp(sc);
  const SimTime spread = units::microseconds(sc.start_spread_us);
  const auto edge_queue = queue::drop_tail(0, 0);
  // Every marking queue of the scenario: the dumbbell/incast bottleneck,
  // or every fabric switch port.
  const sim::QueueFactory marking_disc = sc.marking.queue_factory(
      0, sc.buffer_packets, units::gbps(sc.bottleneck_gbps));

  if (sc.topology == FuzzTopology::kLeafSpine) {
    sim::LeafSpineConfig lcfg;
    lcfg.spines = 2;
    lcfg.leaves = 3;
    lcfg.hosts_per_leaf = 3;
    lcfg.host_link_bps = units::gbps(sc.edge_gbps);
    lcfg.fabric_link_bps = units::gbps(sc.bottleneck_gbps);
    lcfg.host_link_delay = units::microseconds(sc.rtt_us) / 4.0;
    lcfg.fabric_link_delay = units::microseconds(sc.rtt_us) / 4.0;
    rig.fabric = sim::build_leaf_spine(lcfg, marking_disc);
    rig.net = rig.fabric.net.get();

    const std::int64_t n_hosts =
        static_cast<std::int64_t>(rig.fabric.hosts.size());
    for (int i = 0; i < sc.flows; ++i) {
      // Mostly cross-rack pairs so flows traverse the fabric marking
      // queues; same-rack pairs still exercise the leaf hop.
      const std::int64_t src = rng.uniform_int(0, n_hosts - 1);
      std::int64_t dst = rng.uniform_int(0, n_hosts - 2);
      if (dst >= src) ++dst;
      auto conn = std::make_unique<tcp::Connection>(
          *rig.net, *rig.fabric.hosts[static_cast<std::size_t>(src)],
          *rig.fabric.hosts[static_cast<std::size_t>(dst)], tcp_cfg,
          sc.segments_per_flow);
      conn->start_at(rng.uniform(0.0, spread + 1e-9));
      rig.conns.push_back(std::move(conn));
    }
    return rig;
  }

  if (sc.topology == FuzzTopology::kFatTree) {
    sim::FatTreeConfig fcfg;
    fcfg.k = sc.fat_k;
    if (sc.fat_oversub) fcfg.hosts_per_edge = fcfg.radix() * 2;
    fcfg.host_link_bps = units::gbps(sc.edge_gbps);
    fcfg.edge_agg_bps = units::gbps(sc.bottleneck_gbps);
    fcfg.agg_core_bps = units::gbps(sc.bottleneck_gbps);
    fcfg.host_link_delay = units::microseconds(sc.rtt_us) / 8.0;
    fcfg.edge_agg_delay = units::microseconds(sc.rtt_us) / 8.0;
    fcfg.agg_core_delay = units::microseconds(sc.rtt_us) / 4.0;
    fcfg.ecmp = sim::EcmpMode::kBalanced;
    fcfg.ecmp_seed = sc.seed;

    sim::QueueFactory disc = marking_disc;
    if (sc.priority_classes >= 2) {
      disc = queue::multi_queue(
          static_cast<std::size_t>(sc.priority_classes), disc,
          sc.sched_policy == 1 ? queue::SchedPolicy::kWrr
                               : queue::SchedPolicy::kStrictPriority);
    }
    rig.fat = std::make_unique<sim::FatTree>(sim::build_fat_tree(fcfg, disc));
    rig.net = rig.fat->net.get();

    if (sc.fail_at_us >= 0.0) {
      sim::FatTree* ft = rig.fat.get();
      const std::size_t link = sc.fail_link;
      const SimTime t_down = units::microseconds(sc.fail_at_us);
      rig.net->sim().at(t_down, [ft, link, t_down] {
        ft->set_link_state(link, false, t_down);
      });
      if (sc.recover_at_us > sc.fail_at_us) {
        const SimTime t_up = units::microseconds(sc.recover_at_us);
        rig.net->sim().at(t_up, [ft, link, t_up] {
          ft->set_link_state(link, true, t_up);
        });
      }
    }

    const std::int64_t n_hosts =
        static_cast<std::int64_t>(rig.fat->hosts.size());
    for (int i = 0; i < sc.flows; ++i) {
      const std::int64_t src = rng.uniform_int(0, n_hosts - 1);
      std::int64_t dst = rng.uniform_int(0, n_hosts - 2);
      if (dst >= src) ++dst;
      tcp::TcpConfig fl = tcp_cfg;
      if (sc.priority_classes >= 2) {
        fl.priority = static_cast<std::uint8_t>(
            i % static_cast<int>(sc.priority_classes));
      }
      auto conn = std::make_unique<tcp::Connection>(
          *rig.net, *rig.fat->hosts[static_cast<std::size_t>(src)],
          *rig.fat->hosts[static_cast<std::size_t>(dst)], fl,
          sc.segments_per_flow);
      conn->start_at(rng.uniform(0.0, spread + 1e-9));
      rig.conns.push_back(std::move(conn));
    }
    return rig;
  }

  // Dumbbell and incast share the N-senders -> switch -> sink shape;
  // incast differs in the generated parameters (high fan-in, small
  // transfers, near-synchronized starts).
  rig.owned_net = std::make_unique<sim::Network>();
  rig.net = rig.owned_net.get();
  const SimTime leg = units::microseconds(sc.rtt_us) / 4.0;
  sim::Switch& sw = rig.net->add_switch("sw0");
  sim::Host& sink = rig.net->add_host("sink");

  // Optionally put every switch egress queue (the bottleneck toward the
  // sink plus the ACK-return ports toward each sender) on one shared
  // DT-managed buffer pool. Host-side queues stay unpooled: they model
  // NIC transmit rings, not switch memory.
  sim::QueueFactory bneck_disc = marking_disc;
  sim::QueueFactory sw_edge = edge_queue;
  if (sc.pool_capacity_packets > 0) {
    constexpr std::size_t kMtu = 1500;
    rig.pool = std::make_unique<sim::SharedBufferPool>(
        sc.pool_capacity_packets * kMtu);
    const std::size_t n_ports = static_cast<std::size_t>(sc.flows) + 1;
    sim::PortShare share;
    share.alpha = sc.pool_alpha;
    // Clamp so the summed guarantees always fit the pool, however many
    // ports the scenario drew.
    share.headroom_bytes =
        std::min(sc.pool_headroom_packets, sc.pool_capacity_packets / n_ports) *
        kMtu;
    const auto src = sc.pool_ecn ? queue::EcnOccupancySource::kSharedPool
                                 : queue::EcnOccupancySource::kPortQueue;
    bneck_disc = queue::pooled(std::move(bneck_disc), *rig.pool, share, src,
                               static_cast<double>(kMtu));
    sw_edge = queue::pooled(sw_edge, *rig.pool, share);
  }

  const std::size_t sink_port = rig.net->attach_host(
      sink, sw, units::gbps(sc.bottleneck_gbps), leg, edge_queue, bneck_disc);
  std::vector<sim::Host*> senders;
  for (int i = 0; i < sc.flows; ++i) {
    sim::Host& h = rig.net->add_host("sender" + std::to_string(i));
    rig.net->attach_host(h, sw, units::gbps(sc.edge_gbps), leg, edge_queue,
                         sw_edge);
    senders.push_back(&h);
  }
  rig.net->build_routes();
  for (int i = 0; i < sc.flows; ++i) {
    auto conn = std::make_unique<tcp::Connection>(
        *rig.net, *senders[static_cast<std::size_t>(i)], sink, tcp_cfg,
        sc.segments_per_flow);
    conn->start_at(rng.uniform(0.0, spread + 1e-9));
    rig.conns.push_back(std::move(conn));
  }

  // Hybrid scenarios: a fluid background aggregate on the bottleneck,
  // mirroring the packet-side marking discipline (fluid thresholds are
  // always in packets, so byte-unit draws convert back). The coupling
  // stops at its horizon, well inside sim_cap_s, so the event queue
  // still drains.
  if (sc.hybrid_flows > 0.0) {
    hybrid::FluidBackgroundConfig hcfg;
    hcfg.flows = sc.hybrid_flows;
    hcfg.rtt = units::microseconds(sc.rtt_us);
    hcfg.marking = sc.marking.in_packets(1500.0);
    hcfg.horizon = units::microseconds(sc.hybrid_horizon_us);
    rig.fluid_bg = std::make_unique<hybrid::FluidBackground>(
        hcfg, units::gbps(sc.bottleneck_gbps));
    rig.fluid_bg->attach(sw.port(sink_port));
  }
  return rig;
}

std::string fmt_line(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

const char* fuzz_topology_name(FuzzTopology t) {
  switch (t) {
    case FuzzTopology::kDumbbell:
      return "dumbbell";
    case FuzzTopology::kLeafSpine:
      return "leaf-spine";
    case FuzzTopology::kIncast:
      return "incast";
    case FuzzTopology::kFatTree:
      return "fat-tree";
  }
  return "?";
}

std::string FuzzScenario::describe() const {
  std::string line = fmt_line(
      "seed=%llu %s/%s flows=%d segs=%lld bneck=%.0fG rtt=%.0fus buf=%zu "
      "mode=%d%s%s%s",
      static_cast<unsigned long long>(seed), fuzz_topology_name(topology),
      marking.label().c_str(), flows,
      static_cast<long long>(segments_per_flow), bottleneck_gbps, rtt_us,
      buffer_packets, tcp_mode, sack ? " sack" : "", pacing ? " pacing" : "",
      delayed_ack ? " delack" : "");
  if (pool_capacity_packets > 0) {
    line += fmt_line(" pool=%zu a=%.1f hr=%zu%s", pool_capacity_packets,
                     pool_alpha, pool_headroom_packets,
                     pool_ecn ? " poolecn" : "");
  }
  if (topology == FuzzTopology::kFatTree) {
    line += fmt_line(" fk=%zu%s", fat_k, fat_oversub ? " oversub" : "");
    if (priority_classes >= 2) {
      line += fmt_line(" prio=%d/%s", priority_classes,
                       sched_policy == 1 ? "wrr" : "strict");
    }
    if (fail_at_us >= 0.0) {
      line += fmt_line(" fail=l%zu@%.0fus", fail_link, fail_at_us);
      if (recover_at_us > fail_at_us) {
        line += fmt_line(" up@%.0fus", recover_at_us);
      }
    }
  }
  if (hybrid_flows > 0.0) {
    line += fmt_line(" hyb=%.0f@%.0fus", hybrid_flows, hybrid_horizon_us);
  }
  return line;
}

std::string FuzzScenario::repro_command() const {
  const FuzzScenario base = generate_scenario(seed);
  std::string cmd =
      "sim_fuzz --repro " + std::to_string(seed);
  if (flows != base.flows) cmd += " --flows " + std::to_string(flows);
  if (segments_per_flow != base.segments_per_flow) {
    cmd += " --segments " + std::to_string(segments_per_flow);
  }
  if (buffer_packets != base.buffer_packets) {
    cmd += " --buffer " + std::to_string(buffer_packets);
  }
  return cmd;
}

FuzzScenario generate_scenario(std::uint64_t seed) {
  FuzzScenario sc;
  sc.seed = seed;
  Rng rng(splitmix64(seed ^ kGenSalt));

  const double tp = rng.uniform(0.0, 1.0);
  sc.topology = tp < 0.5    ? FuzzTopology::kDumbbell
                : tp < 0.75 ? FuzzTopology::kLeafSpine
                            : FuzzTopology::kIncast;

  const double dp = rng.uniform(0.0, 1.0);

  const bool incast = sc.topology == FuzzTopology::kIncast;
  sc.flows = static_cast<int>(incast ? rng.uniform_int(4, 24)
                                     : rng.uniform_int(2, 12));
  sc.segments_per_flow =
      incast ? rng.uniform_int(5, 60) : rng.uniform_int(20, 300);

  sc.bottleneck_gbps = rng.bernoulli(0.5) ? 10.0 : 1.0;
  sc.edge_gbps =
      rng.bernoulli(0.3) ? sc.bottleneck_gbps * 4.0 : sc.bottleneck_gbps;
  sc.rtt_us = rng.uniform(40.0, 400.0);
  sc.buffer_packets = rng.bernoulli(0.25)
                          ? 0
                          : static_cast<std::size_t>(rng.uniform_int(16, 250));

  double kp1 = rng.uniform(2.0, 64.0);
  double kp2 = rng.bernoulli(0.15) ? kp1 : kp1 + rng.uniform(0.0, 40.0);
  const bool byte_unit = rng.bernoulli(0.25);
  const double scale = byte_unit ? 1500.0 : 1.0;
  const double k1 = std::floor(kp1) * scale;
  const double k2 = std::floor(kp2) * scale;
  const auto variant =
      static_cast<queue::HysteresisVariant>(rng.uniform_int(0, 2));
  const queue::MarkPoint at = rng.bernoulli(0.25) ? queue::MarkPoint::kDequeue
                                                  : queue::MarkPoint::kArrival;
  const queue::ThresholdUnit unit = byte_unit ? queue::ThresholdUnit::kBytes
                                              : queue::ThresholdUnit::kPackets;
  sc.marking = dp < 0.20   ? queue::MarkingRule::drop_tail()
               : dp < 0.55 ? queue::MarkingRule::dctcp(k1, unit, at)
               : dp < 0.90 ? queue::MarkingRule::dt_dctcp(k1, k2, unit, variant)
                           : queue::MarkingRule::aqm(queue::CodelConfig{});

  const double mp = rng.uniform(0.0, 1.0);
  sc.tcp_mode = static_cast<int>(mp < 0.50   ? tcp::CcMode::kDctcp
                                 : mp < 0.65 ? tcp::CcMode::kReno
                                 : mp < 0.80 ? tcp::CcMode::kEcnReno
                                 : mp < 0.90 ? tcp::CcMode::kCubic
                                             : tcp::CcMode::kD2tcp);
  sc.sack = rng.bernoulli(0.3);
  sc.pacing = rng.bernoulli(0.25);
  sc.delayed_ack = rng.bernoulli(0.3);
  sc.start_spread_us = incast ? rng.uniform(0.0, 20.0)
                              : rng.uniform(0.0, 1000.0);

  // Shared-buffer pool draws come last so earlier dimensions of a given
  // seed are unchanged from pre-pool builds. Leaf-spine rigs ignore the
  // pool fields (build_rig keeps their per-port limits).
  if (rng.bernoulli(0.4)) {
    sc.pool_capacity_packets =
        static_cast<std::size_t>(rng.uniform_int(16, 128));
    const double ap = rng.uniform(0.0, 1.0);
    sc.pool_alpha = ap < 0.25 ? 0.0 : ap < 0.5 ? 0.5 : ap < 0.8 ? 1.0 : 2.0;
    sc.pool_headroom_packets =
        static_cast<std::size_t>(rng.uniform_int(0, 4));
    sc.pool_ecn = rng.bernoulli(0.25);
  }

  // Fat-tree draws come last (same append-only discipline as the pool
  // block): a late coin flip retargets part of the dumbbell/leaf-spine
  // seed space onto the fat-tree fabric, with optional multi-queue
  // priorities and a mid-run link failure/recovery schedule. Incast
  // seeds keep their many-to-one shape.
  if (sc.topology != FuzzTopology::kIncast && rng.bernoulli(0.35)) {
    sc.topology = FuzzTopology::kFatTree;
    sc.fat_k = rng.bernoulli(0.75) ? 4 : 6;
    sc.fat_oversub = rng.bernoulli(0.3);
    if (rng.bernoulli(0.4)) {
      sc.priority_classes = static_cast<int>(rng.uniform_int(2, 3));
      sc.sched_policy = rng.bernoulli(0.5) ? 1 : 0;
    }
    if (rng.bernoulli(0.5)) {
      sc.fail_at_us = rng.uniform(100.0, 1500.0);
      sc.fail_link = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
      if (rng.bernoulli(0.5)) {
        sc.recover_at_us = sc.fail_at_us + rng.uniform(200.0, 1000.0);
      }
    }
  }

  // Hybrid draws come last (append-only, like the pool and fat-tree
  // blocks): ~20% of the dumbbell threshold/hysteresis seed space gains
  // a fluid background aggregate contending for the bottleneck, so the
  // fuzzer exercises the coupling plumbing — gauge publication, port
  // rate scaling, and the checker's fluid_coupled audit — under
  // adversarial thresholds and RTTs.
  if (sc.topology == FuzzTopology::kDumbbell &&
      fluid::MarkingAutomaton::models(sc.marking) && rng.bernoulli(0.2)) {
    sc.hybrid_flows = static_cast<double>(rng.uniform_int(20, 500));
    sc.hybrid_horizon_us = rng.uniform(2000.0, 20000.0);
  }
  return sc;
}

FuzzResult run_scenario(const FuzzScenario& sc, const CheckConfig& cfg) {
  FuzzResult res;
  res.checks_compiled = compiled();

  CheckScope scope(cfg);
  {
    Rig rig = build_rig(sc);
    int done = 0;
    for (auto& conn : rig.conns) {
      conn->set_on_complete([&done](SimTime) { ++done; });
    }
    rig.net->sim().run_until(sc.sim_cap_s);
    res.drained = rig.net->sim().empty();
    res.completed = done == sc.flows;
    res.events = rig.net->sim().events_processed();
    if (res.drained && scope.checker() != nullptr) {
      scope.checker()->finalize();
    }
  }  // topology + endpoints destroyed with the checker still installed

  if (Checker* c = scope.checker()) {
    res.fault_fired = c->fault_fired();
    res.violation_count = c->violation_count();
    res.violations = c->violations();
    res.totals = c->totals();
  }
  return res;
}

FuzzScenario shrink_scenario(FuzzScenario failing, const CheckConfig& cfg,
                             int max_attempts) {
  CheckConfig quiet = cfg;
  quiet.abort_on_violation = false;
  const auto still_fails = [&](const FuzzScenario& sc) {
    return run_scenario(sc, quiet).violation_count > 0;
  };

  int attempts = 0;
  bool progress = true;
  while (progress && attempts < max_attempts) {
    progress = false;
    if (failing.flows > 1 && attempts < max_attempts) {
      FuzzScenario c = failing;
      c.flows = std::max(1, failing.flows / 2);
      ++attempts;
      if (still_fails(c)) {
        failing = c;
        progress = true;
      }
    }
    if (failing.segments_per_flow > 1 && attempts < max_attempts) {
      FuzzScenario c = failing;
      c.segments_per_flow = std::max<std::int64_t>(
          1, failing.segments_per_flow / 2);
      ++attempts;
      if (still_fails(c)) {
        failing = c;
        progress = true;
      }
    }
    if (failing.buffer_packets > 1 && attempts < max_attempts) {
      FuzzScenario c = failing;
      c.buffer_packets = failing.buffer_packets / 2;
      ++attempts;
      if (still_fails(c)) {
        failing = c;
        progress = true;
      }
    }
  }
  return failing;
}

FuzzResult run_large_scenario(std::uint64_t seed) {
  Rng rng(splitmix64(seed ^ kLargeSalt));

  parsim::FabricConfig fc;
  fc.fabric = sim::LeafSpineConfig::stress();
  const std::size_t shard_choices[] = {1, 2, 4};
  fc.shards = shard_choices[rng.uniform_int(0, 2)];
  fc.segments_per_flow = rng.uniform_int(30, 90);
  fc.mark_threshold_packets = rng.uniform(20.0, 80.0);
  fc.buffer_packets = static_cast<std::size_t>(rng.uniform_int(150, 400));
  fc.seed = derive_seed(seed, 11);
  // Fat-tree draws appended after the leaf-spine draws (same stream):
  // about half the seeds run an oversubscribed k=4 fat-tree instead,
  // with balanced ECMP, optional 2-class priorities, and an optional
  // mid-run agg-core link failure (the sharded reroute path).
  if (rng.bernoulli(0.5)) {
    fc.topology = parsim::FabricTopology::kFatTree;
    fc.fat_tree.k = 4;
    fc.fat_tree.hosts_per_edge = 4;  // 2:1 oversubscribed, 32 hosts
    fc.fat_tree.ecmp = sim::EcmpMode::kBalanced;
    fc.fat_tree.ecmp_seed = derive_seed(seed, 13);
    if (rng.bernoulli(0.5)) {
      fc.priority_classes = 2;
      fc.sched_policy = rng.bernoulli(0.5) ? queue::SchedPolicy::kWrr
                                           : queue::SchedPolicy::kStrictPriority;
    }
    if (rng.bernoulli(0.6)) {
      sim::LinkEvent down;
      down.time = rng.uniform(300e-6, 2e-3);
      down.link = static_cast<std::size_t>(rng.uniform_int(0, 1 << 16));
      down.up = false;
      fc.link_events.push_back(down);
      if (rng.bernoulli(0.5)) {
        sim::LinkEvent up = down;
        up.time = down.time + rng.uniform(300e-6, 1.5e-3);
        up.up = true;
        fc.link_events.push_back(up);
      }
    }
  }
  // Per-shard checkers always on (when compiled), never aborting — the
  // fuzzer wants the violation list, not a crash.
  fc.check = parsim::ShardRunnerOptions::Check::kForce;
  fc.check_cfg.abort_on_violation = false;

  // The caller-thread scope covers the single-shard path (which runs
  // inline); with more shards the workers install their own checkers
  // and this scope just observes nothing.
  const auto one = [&](FuzzResult& r) {
    CheckConfig cc;
    cc.abort_on_violation = false;
    CheckScope scope(cc);
    const parsim::FabricResult fr = parsim::run_fabric(fc);
    r.checks_compiled = compiled();
    r.events = fr.events;
    r.drained = fr.ledger_ok;
    r.completed = fr.completed == fr.flows;
    r.violation_count = fr.check_violations;
    if (Checker* c = scope.checker()) {
      c->finalize();
      r.violation_count += c->violation_count();
      r.violations = c->violations();
      r.totals = c->totals();
    }
    if (!fr.ledger_ok) ++r.violation_count;
    return fr.digest;
  };

  FuzzResult first;
  FuzzResult second;
  const std::uint64_t d1 = one(first);
  const std::uint64_t d2 = one(second);
  first.violation_count += second.violation_count;
  // Fixed shard count => identical digest is a hard guarantee;
  // nondeterminism is as much a bug as a conservation leak.
  if (d1 != d2) ++first.violation_count;
  return first;
}

FluidCrossResult fluid_cross_check(std::uint64_t seed) {
  Rng rng(splitmix64(seed ^ kFluidSalt));

  core::DumbbellConfig dc;
  dc.flows = static_cast<std::size_t>(rng.uniform_int(6, 14));
  dc.bottleneck_bps = units::gbps(10);
  dc.edge_bps = units::gbps(10);
  dc.rtt = units::microseconds(rng.uniform(60.0, 160.0));
  dc.tcp.mode = tcp::CcMode::kDctcp;
  dc.switch_buffer_packets = 0;  // unlimited: the stable regime is dropless
  dc.warmup = 0.15;
  dc.measure = 0.35;
  dc.seed = derive_seed(seed, 7);

  const double mss = static_cast<double>(dc.tcp.mss_bytes);
  const double cap_pps =
      units::packets_per_second(dc.bottleneck_bps, dc.tcp.mss_bytes);
  const double bdp_pkts = cap_pps * dc.rtt;
  // K well above the DCTCP stability floor (~0.17 * C*RTT) so the queue
  // never empties and the fluid operating point is the valid regime.
  const double k = std::max(25.0, rng.uniform(0.5, 0.9) * bdp_pkts);
  const bool hysteresis = rng.bernoulli(0.5);
  dc.marking = hysteresis
                   ? queue::MarkingRule::dt_dctcp(k, k + rng.uniform(4.0, 12.0))
                   : queue::MarkingRule::dctcp(k);
  (void)mss;

  FluidCrossResult res;
  CheckConfig cc;
  cc.abort_on_violation = false;
  std::uint64_t violations = 0;
  core::DumbbellResult sim;
  {
    // run_dumbbell tears the network down mid-flight, so the scope runs
    // every per-event check but never finalize().
    CheckScope scope(cc);
    sim = core::run_dumbbell(dc);
    if (scope.checker() != nullptr) {
      violations = scope.checker()->violation_count();
    }
  }

  fluid::FluidParams fp;
  fp.capacity_pps = cap_pps;
  fp.flows = static_cast<double>(dc.flows);
  fp.rtt = dc.rtt;
  fp.g = dc.tcp.dctcp_g;
  fp.marking = dc.marking.in_packets(dc.tcp.mss_bytes);
  const fluid::FluidState op = fluid::operating_point(fp);

  res.sim_queue_mean = sim.queue_mean;
  res.sim_utilization = sim.utilization;
  res.fluid_queue = op.q;
  res.violation_count = violations;
  // The packet process oscillates around the marking point with
  // amplitude ~ O(N + sqrt(C*RTT)); the fluid q0 is the cycle center.
  const double tol = std::max(
      12.0, 0.35 * op.q + 1.5 * static_cast<double>(dc.flows));
  res.queue_ok = std::abs(sim.queue_mean - op.q) <= tol;
  res.utilization_ok = sim.utilization >= 0.85 && sim.utilization <= 1.02;
  res.detail = fmt_line(
      "seed=%llu N=%zu rtt=%.0fus %s K=%.0f: sim q=%.1f fluid q0=%.1f "
      "(tol %.1f) util=%.3f viol=%llu",
      static_cast<unsigned long long>(seed), dc.flows, dc.rtt * 1e6,
      hysteresis ? "DT" : "single", k, sim.queue_mean, op.q, tol,
      sim.utilization, static_cast<unsigned long long>(violations));
  return res;
}

}  // namespace dtdctcp::check
