#include "scenarios.h"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <memory>

#include "core/dumbbell.h"
#include "fluid/fluid_model.h"
#include "hybrid/fluid_background.h"
#include "parsim/fabric.h"
#include "parsim/partition.h"
#include "parsim/shard_runner.h"
#include "parsim/sharded_network.h"
#include "queue/factory.h"
#include "sim/fabric.h"
#include "sim/queue_monitor.h"
#include "stats/percentile.h"
#include "stats/streaming.h"
#include "tcp/connection.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/fct_workloads.h"
#include "workload/long_lived.h"

namespace perfbench {

using namespace dtdctcp;

namespace {

// ---------------------------------------------------------------------
// Workload definitions (see README.md for why each was chosen).

core::DumbbellConfig dumbbell_config(const Scenario& sc) {
  core::DumbbellConfig cfg;
  cfg.flows = 40;
  cfg.bottleneck_bps = units::gbps(10);
  cfg.edge_bps = units::gbps(10);
  cfg.rtt = units::microseconds(100);
  cfg.marking = core::MarkingConfig::dt_dctcp(30.0, 50.0);
  cfg.switch_buffer_packets = 250;
  cfg.warmup = 0.1 * sc.scale;
  cfg.measure = 0.4 * sc.scale;
  cfg.seed = sc.seed;
  return cfg;
}

constexpr double kFatTreeFlowSegments = 300.0;

parsim::FabricConfig fattree_config(const Scenario& sc) {
  parsim::FabricConfig cfg;
  cfg.topology = parsim::FabricTopology::kFatTree;
  sim::FatTreeConfig& ft = cfg.fat_tree;
  ft.k = 8;
  ft.hosts_per_edge = 8;  // 8 x 10G down vs 4 x 10G up: 2:1 at the edge
  ft.host_link_bps = units::gbps(10);
  ft.edge_agg_bps = units::gbps(10);
  ft.agg_core_bps = units::gbps(10);
  ft.ecmp = sim::EcmpMode::kBalanced;
  ft.ecmp_seed = sc.seed;
  cfg.shards = 2;
  cfg.mark_threshold_packets = 65.0;
  cfg.buffer_packets = 250;
  cfg.tcp.min_rto = 2e-3;
  cfg.tcp.init_rto = 2e-3;
  cfg.segments_per_flow = std::max<std::int64_t>(
      20, static_cast<std::int64_t>(kFatTreeFlowSegments * sc.scale));
  cfg.seed = sc.seed;
  cfg.check = parsim::ShardRunnerOptions::Check::kOff;
  // One agg-core link of a seed-chosen pod fails while every flow is
  // still transferring and recovers well before the permutation drains.
  // Every flow crosses the core at half its host rate (2:1 edge), so the
  // permutation needs about 2 * segments * MSS / host rate to drain.
  // Links are numbered pod by pod: r*r edge-agg, then r*r agg-core.
  const std::size_t r = ft.radix();
  const std::size_t pod = sc.seed % ft.k;
  const std::size_t link =
      pod * 2 * r * r + r * r + (sc.seed / ft.k) % (r * r);
  const SimTime drain = 2.0 * static_cast<double>(cfg.segments_per_flow) *
                        cfg.tcp.mss_bytes * 8.0 / ft.host_link_bps;
  cfg.link_events = {{0.3 * drain, link, false}, {0.6 * drain, link, true}};
  return cfg;
}

constexpr std::size_t kHybridInputs = 32;

workload::FctWorkloadConfig hybrid_config(const Scenario& sc) {
  // The ext_hybrid_scale headline cell (10^4 fluid background flows),
  // with a longer arrival window so a run holds enough foreground flows.
  workload::FctWorkloadConfig cfg;
  cfg.kind = workload::FctWorkloadKind::kWebSearch;
  cfg.scheme = workload::FctScheme::kDctcp;
  cfg.load = 0.5;
  cfg.duration = 2.0 * sc.scale;
  cfg.senders = 8;
  cfg.link_bps = units::gbps(1);
  cfg.buffer_pkts = 250;
  cfg.seed = sc.seed * kHybridInputs + sc.input;
  cfg.background_flows = 10000;
  cfg.background_mode = workload::FctBackgroundMode::kFluid;
  cfg.background_fluid_dt = cfg.background_rtt / 50.0;
  return cfg;
}

std::string fct_prefix(const workload::FctWorkloadConfig& cfg) {
  return std::string("fct.") + workload::fct_workload_name(cfg.kind) + "." +
         workload::fct_scheme_name(cfg.scheme);
}

// ---------------------------------------------------------------------
// Fingerprints: exact, bit-level renderings of each outcome.

class Fingerprint {
 public:
  void add(const char* key, std::uint64_t v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s=%" PRIu64 " ", key, v);
    s_ += buf;
  }
  void add(const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s=%016" PRIx64 " ", key,
                  std::bit_cast<std::uint64_t>(v));
    s_ += buf;
  }
  std::string str() const {
    return s_.empty() ? s_ : s_.substr(0, s_.size() - 1);
  }

 private:
  std::string s_;
};

std::string fingerprint(const core::DumbbellResult& r) {
  Fingerprint f;
  f.add("events", r.events);
  f.add("packets", r.packets);
  f.add("marks", r.marks);
  f.add("drops", r.drops);
  f.add("timeouts", r.timeouts);
  f.add("queue_mean", r.queue_mean);
  f.add("queue_stddev", r.queue_stddev);
  f.add("alpha_mean", r.alpha_mean);
  return f.str();
}

std::string fingerprint(const parsim::FabricResult& r) {
  Fingerprint f;
  f.add("digest", r.digest);
  f.add("flows", r.flows);
  f.add("completed", r.completed);
  f.add("events", r.events);
  f.add("fabric_packets", r.fabric_packets);
  f.add("marks", r.marks);
  f.add("drops", r.drops);
  f.add("link_down_drops", r.link_down_drops);
  f.add("ledger_ok", static_cast<std::uint64_t>(r.ledger_ok));
  f.add("check_violations", r.check_violations);
  return f.str();
}

std::string fingerprint(const workload::FctWorkloadResult& r,
                        const sim::Counters& sw) {
  Fingerprint f;
  f.add("started", static_cast<std::uint64_t>(r.flows_started));
  f.add("completed", static_cast<std::uint64_t>(r.flows_completed));
  f.add("fct_mean", r.fct_mean);
  f.add("fct_p50", r.fct_p50);
  f.add("fct_p99", r.fct_p99);
  f.add("fct_max", r.fct_max);
  f.add("small_p99", r.small_p99);
  f.add("large_p99", r.large_p99);
  f.add("retx", r.retransmissions);
  f.add("timeouts", r.timeouts);
  f.add("queue_mean", r.queue_mean_pkts);
  f.add("bg_ticks", r.bg_ticks);
  f.add("sw_offered", sw.offered);
  f.add("sw_sent", sw.sent_packets);
  f.add("sw_marked", sw.marked);
  f.add("sw_dropped", sw.dropped);
  return f.str();
}

sim::Counters switch_counters(workload::FctWorkloadResult& r,
                              const std::string& prefix) {
  auto get = [&](const char* field) {
    return r.metrics.counter(prefix + ".switch." + field).value();
  };
  sim::Counters c;
  c.offered = get("offered");
  c.sent_packets = get("sent_packets");
  c.marked = get("marked");
  c.dropped = get("dropped");
  return c;
}

/// run_fabric's FNV-1a digest, reproduced for the traced rebuild.
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
    for (const std::uint64_t v :
         {c.offered, c.enqueued, c.dequeued, c.bypassed, c.dropped, c.marked,
          c.sent_packets, c.sent_bytes, c.unrouted_dropped,
          c.unbound_dropped}) {
      mix(v);
    }
  }
};

// ---------------------------------------------------------------------
// Timing helpers.

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Everything one traced rebuild measured, before normalisation.
struct Raw {
  std::string fingerprint;
  std::string problem;
  std::uint64_t pkts = 0;
  double wall_s = 0.0;
  double run_s = 0.0;        ///< traffic phase, thread-seconds
  double sync_s = 0.0;       ///< parsim: thread-seconds outside windows
  LayerTotals layers;
  std::uint64_t events = 0, cancels = 0, clamps = 0;
  sim::Counters queue;       ///< traced disciplines only
  std::uint64_t retx = 0, segs_sent = 0, timeouts = 0;
  double topology_s = 0.0, routes_s = 0.0, shards_s = 0.0, flows_s = 0.0;
  std::uint64_t rounds = 0, windows = 0, mailbox = 0;
  double busy_frac = 0.0, imbalance = 0.0;
  std::uint64_t ticks = 0;
  double fluid_ns_per_tick = 0.0;
};

/// Re-binds both endpoints of `conn` through timing relays.
void relay_connection(tcp::Connection& conn, sim::Host& src, sim::Host& dst,
                      Tracer& tracer,
                      std::vector<std::unique_ptr<SinkRelay>>& relays) {
  relays.push_back(std::make_unique<SinkRelay>(conn.sender(), tracer));
  src.bind_flow(conn.flow(), relays.back().get());
  relays.push_back(std::make_unique<SinkRelay>(conn.receiver(), tracer));
  dst.bind_flow(conn.flow(), relays.back().get());
}

// ---------------------------------------------------------------------
// dumbbell: mirrors core::run_dumbbell (serial, shards == 0).

Raw traced_dumbbell(const core::DumbbellConfig& cfg) {
  Tracer tracer;
  Raw raw;

  auto t = Clock::now();
  sim::Network net;
  const SimTime leg = cfg.rtt / 4.0;
  sim::Switch& sw = net.add_switch("sw0");
  sim::Host& sink = net.add_host("sink");
  const auto edge_queue = traced(queue::drop_tail(0, 0), tracer);
  const auto bneck_queue = traced(
      cfg.marking.queue_factory(cfg.switch_buffer_bytes,
                                cfg.switch_buffer_packets),
      tracer);
  const std::size_t bneck_port = net.attach_host(
      sink, sw, cfg.bottleneck_bps, leg, edge_queue, bneck_queue);
  std::vector<sim::Host*> senders;
  senders.reserve(cfg.flows);
  for (std::size_t i = 0; i < cfg.flows; ++i) {
    sim::Host& h = net.add_host("sender" + std::to_string(i));
    net.attach_host(h, sw, cfg.edge_bps, leg, edge_queue, edge_queue);
    senders.push_back(&h);
  }
  raw.topology_s = seconds_since(t);

  t = Clock::now();
  net.build_routes();
  raw.routes_s = seconds_since(t);

  t = Clock::now();
  sim::QueueDisc& bneck = real_disc(sw.port(bneck_port).disc());
  sim::QueueMonitor monitor;
  monitor.attach(bneck, cfg.trace_queue);
  ObserverRelay monitor_relay(monitor, tracer);
  bneck.set_observer(&monitor_relay);
  workload::LongLivedGroup group(net, senders, sink, cfg.tcp,
                                 cfg.start_spread, cfg.seed);
  std::vector<std::unique_ptr<SinkRelay>> relays;
  for (std::size_t i = 0; i < group.size(); ++i) {
    relay_connection(group.conn(i), *senders[i], sink, tracer, relays);
  }
  raw.flows_s = seconds_since(t);

  core::DumbbellResult result;
  const SimTime alpha_every =
      cfg.alpha_sample_every > 0.0 ? cfg.alpha_sample_every : cfg.rtt;
  stats::Streaming alpha_stats;
  std::function<void()> sample_alpha = [&] {
    const double a = group.mean_alpha();
    alpha_stats.add(a);
    result.alpha_trace.add(net.sim().now(), a);
    net.sim().after(alpha_every, sample_alpha);
  };

  t = Clock::now();
  net.sim().run_until(cfg.warmup);
  raw.run_s += seconds_since(t);
  monitor.reset_stats(cfg.warmup);
  net.sim().after(0.0, sample_alpha);
  const SimTime end = cfg.warmup + cfg.measure;
  t = Clock::now();
  net.sim().run_until(end);
  raw.run_s += seconds_since(t);
  monitor.finish(end);

  result.queue_mean = monitor.packets().mean();
  result.queue_stddev = monitor.packets().stddev();
  result.alpha_mean = alpha_stats.mean();
  result.marks = bneck.marks();
  result.drops = bneck.drops();
  result.timeouts = group.total_timeouts();
  result.events = net.sim().events_processed();
  result.packets = sw.port(bneck_port).packets_sent();

  raw.fingerprint = fingerprint(result);
  raw.pkts = result.packets;
  raw.layers = tracer.totals();
  raw.events = result.events;
  raw.cancels = net.sim().timers_cancelled();
  raw.clamps = net.sim().past_schedule_clamps();
  raw.queue = traced_counters(net);
  for (std::size_t i = 0; i < group.size(); ++i) {
    const tcp::TcpSender& s = group.conn(i).sender();
    raw.retx += s.retransmissions();
    raw.segs_sent += s.segments_sent();
    raw.timeouts += s.timeouts();
  }
  return raw;
}

// ---------------------------------------------------------------------
// fattree: mirrors parsim::run_fabric (fat-tree, sharded, no hybrid).

Raw traced_fattree(const parsim::FabricConfig& cfg) {
  Tracer tracer;
  Raw raw;

  auto t = Clock::now();
  const sim::QueueFactory switch_queue =
      traced(queue::ecn_threshold(0, cfg.buffer_packets,
                                  cfg.mark_threshold_packets,
                                  queue::ThresholdUnit::kPackets),
             tracer);
  sim::FatTree ft = sim::build_fat_tree(cfg.fat_tree, switch_queue);
  const double build_s = seconds_since(t);
  sim::Network& net = *ft.net;
  // build_fat_tree computes routes internally; time an identical second
  // computation (no link is down, so the tables come out the same) and
  // charge the rest of the build to topology.
  t = Clock::now();
  ft.rebuild_routes(ft.link_down, nullptr);
  raw.routes_s = seconds_since(t);
  raw.topology_s = std::max(0.0, build_s - raw.routes_s);

  t = Clock::now();
  auto sharded = std::make_unique<parsim::ShardedNetwork>(
      net, parsim::fat_tree_partition(ft, cfg.shards));
  parsim::ShardRunnerOptions opts;
  opts.check = cfg.check;
  opts.check_cfg = cfg.check_cfg;
  auto runner = std::make_unique<parsim::ShardRunner>(*sharded, opts);
  raw.shards_s = seconds_since(t);

  t = Clock::now();
  std::vector<std::vector<char>> down_sets(
      sharded->shards(), std::vector<char>(ft.links.size(), 0));
  sim::FatTree* tree = &ft;
  parsim::ShardedNetwork* sn = sharded.get();
  Tracer* tr = &tracer;
  for (const sim::LinkEvent& ev : cfg.link_events) {
    for (std::size_t s = 0; s < sharded->shards(); ++s) {
      std::vector<char>* down = &down_sets[s];
      sharded->shard_sim(s).at(ev.time, [tree, sn, down, s, ev, tr] {
        Span span(*tr, Layer::kRoute);
        tree->apply_link_event(*down, ev.link, ev.up, ev.time,
                               [sn, s](const sim::Switch& sw) {
                                 return sn->shard_of(sw.id()) == s;
                               });
      });
    }
  }

  const std::vector<sim::Host*>& hosts = ft.hosts;
  const std::size_t n = hosts.size();
  const std::size_t group = ft.cfg.hosts_per_pod();
  Rng rng(cfg.seed);
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  std::vector<std::unique_ptr<SinkRelay>> relays;
  conns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Host& src = *hosts[i];
    sim::Host& dst = *hosts[(i + group) % n];
    auto conn = std::make_unique<tcp::Connection>(
        net, sharded->sim_for(src.id()), sharded->sim_for(dst.id()), src, dst,
        cfg.tcp, cfg.segments_per_flow);
    relay_connection(*conn, src, dst, tracer, relays);
    conn->start_at(cfg.start_spread > 0.0 ? rng.uniform(0.0, cfg.start_spread)
                                          : 0.0);
    conns.push_back(std::move(conn));
  }
  raw.flows_s = seconds_since(t);

  parsim::FabricResult out;
  out.flows = n;
  runner->run();
  out.ledger_ok = runner->finalize();
  const parsim::ShardRunnerTelemetry& tel = runner->telemetry();
  for (const auto& c : runner->checkers()) {
    if (c != nullptr) out.check_violations += c->violation_count();
  }
  for (std::size_t s = 0; s < sharded->shards(); ++s) {
    sim::Simulator& sim = sharded->shard_sim(s);
    out.events += sim.events_processed();
    raw.cancels += sim.timers_cancelled();
    raw.clamps += sim.past_schedule_clamps();
  }

  Fnv digest;
  for (const auto& conn : conns) {
    const tcp::TcpSender& snd = conn->sender();
    if (snd.completed()) ++out.completed;
    digest.mix(static_cast<std::uint64_t>(conn->flow()));
    digest.mix(snd.completion_time());
    digest.mix(static_cast<std::uint64_t>(snd.retransmissions()));
    digest.mix(static_cast<std::uint64_t>(snd.timeouts()));
    digest.mix(snd.alpha());
    digest.mix(static_cast<std::uint64_t>(conn->receiver().bytes_received()));
    raw.retx += snd.retransmissions();
    raw.segs_sent += snd.segments_sent();
    raw.timeouts += snd.timeouts();
  }
  for (const auto* tier : {&ft.edges, &ft.aggs, &ft.cores}) {
    for (sim::Switch* sw : *tier) {
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
      digest.mix(down_drops);
    }
  }
  out.digest = digest.h;

  raw.fingerprint = fingerprint(out);
  if (out.completed != out.flows) raw.problem = "unfinished flows";
  if (!out.ledger_ok) raw.problem = "cross-shard ledger broken";
  raw.pkts = out.fabric_packets;
  raw.layers = tracer.totals();
  raw.events = out.events;
  raw.queue = traced_counters(net);
  // Thread time the run could use: one CPU per shard, but no more CPUs
  // than the process may run on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus = sched_getaffinity(0, sizeof allowed, &allowed) == 0
                       ? CPU_COUNT(&allowed)
                       : 1;
  const double shards = static_cast<double>(tel.shards);
  raw.run_s = std::min(shards, static_cast<double>(cpus)) * tel.wall_seconds;
  raw.sync_s = raw.run_s - tel.busy_seconds_total();
  raw.rounds = tel.rounds;
  double busy_max = 0.0;
  for (const parsim::ShardStats& st : tel.shard) {
    raw.windows += st.windows;
    raw.mailbox += st.drained;
    busy_max = std::max(busy_max, st.busy_seconds);
  }
  raw.busy_frac = raw.run_s > 0.0 ? tel.busy_seconds_total() / raw.run_s : 0.0;
  raw.imbalance = tel.busy_seconds_total() > 0.0
                      ? busy_max / (tel.busy_seconds_total() / shards)
                      : 0.0;
  return raw;
}

// ---------------------------------------------------------------------
// hybrid: mirrors workload::run_fct_workload (fluid background, no
// shared pool, no priority classes). The bottleneck discipline is not
// wrapped: the fluid coupler needs its concrete queue::FifoBase.

Raw traced_hybrid(const workload::FctWorkloadConfig& cfg) {
  Tracer tracer;
  Raw raw;

  auto t = Clock::now();
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_host("sink");
  const auto edge = traced(queue::drop_tail(0, 0), tracer);
  const sim::QueueFactory bottleneck =
      workload::fct_marking(cfg.scheme, cfg.buffer_pkts, cfg.link_bps);
  const std::size_t sink_port =
      net.attach_host(sink, sw, cfg.link_bps, 25e-6, edge, bottleneck);
  std::vector<sim::Host*> senders;
  senders.reserve(cfg.senders);
  for (std::size_t i = 0; i < cfg.senders; ++i) {
    auto& h = net.add_host("h" + std::to_string(i));
    net.attach_host(h, sw, 10.0 * cfg.link_bps, 25e-6, edge, edge);
    senders.push_back(&h);
  }
  raw.topology_s = seconds_since(t);

  t = Clock::now();
  net.build_routes();
  raw.routes_s = seconds_since(t);

  t = Clock::now();
  sim::QueueDisc& bneck = sw.port(sink_port).disc();
  sim::QueueMonitor monitor;
  monitor.attach(bneck);
  ObserverRelay monitor_relay(monitor, tracer);
  bneck.set_observer(&monitor_relay);

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = cfg.cc_mode;
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;
  workload::PoissonConfig pcfg;
  pcfg.sizes = workload::fct_workload_sizes(cfg.kind);
  pcfg.arrivals_per_sec = workload::arrival_rate_for_load(
      cfg.load, cfg.link_bps, pcfg.sizes, tcp_cfg.mss_bytes);
  pcfg.duration = cfg.duration;
  pcfg.seed = cfg.seed;
  pcfg.flow_deadline = cfg.flow_deadline;
  tcp::FlowMetricsCollector collector(pcfg.small_cutoff_segments,
                                      pcfg.large_cutoff_segments);
  workload::PoissonFlowGenerator gen(net, senders, {&sink}, tcp_cfg, pcfg);
  gen.set_collector(&collector);

  hybrid::FluidBackgroundConfig hcfg;
  hcfg.flows = static_cast<double>(cfg.background_flows);
  hcfg.rtt = cfg.background_rtt;
  hcfg.marking = workload::fct_fluid_marking(cfg.scheme);
  hcfg.couple_dt = cfg.background_couple_dt;
  hcfg.fluid_dt = cfg.background_fluid_dt;
  hcfg.horizon =
      cfg.background_horizon > 0.0 ? cfg.background_horizon : cfg.duration;
  hybrid::FluidBackground fluid_bg(hcfg, cfg.link_bps);
  fluid_bg.attach(sw.port(sink_port));
  gen.start(0.0);
  raw.flows_s = seconds_since(t);

  t = Clock::now();
  net.sim().run();
  raw.run_s = seconds_since(t);
  monitor.finish(net.sim().now());

  workload::FctWorkloadResult r;
  r.flows_started = gen.flows_started();
  r.flows_completed = gen.flows_completed();
  auto& all = collector.fct_all();
  if (all.count() > 0) {
    r.fct_mean = all.mean();
    r.fct_p50 = all.median();
    r.fct_p99 = all.p99();
    r.fct_max = all.max();
  }
  if (collector.fct_small().count() > 0) {
    r.small_p99 = collector.fct_small().p99();
  }
  if (collector.fct_large().count() > 0) {
    r.large_p99 = collector.fct_large().p99();
  }
  r.retransmissions = collector.retransmissions();
  r.timeouts = collector.timeouts();
  r.queue_mean_pkts = monitor.packets().mean();
  r.bg_ticks = fluid_bg.ticks();
  const sim::Counters sc = sw.counters();

  raw.fingerprint = fingerprint(r, sc);
  if (r.flows_completed != r.flows_started) raw.problem = "unfinished flows";
  raw.pkts = sc.sent_packets;
  raw.layers = tracer.totals();
  raw.events = net.sim().events_processed();
  raw.cancels = net.sim().timers_cancelled();
  raw.clamps = net.sim().past_schedule_clamps();
  raw.queue = traced_counters(net);
  // The generator owns its connections; completed-flow records still
  // give the exact retransmission share (sent = size + retransmitted).
  for (const tcp::FlowRecord& rec : collector.records()) {
    raw.segs_sent += static_cast<std::uint64_t>(rec.size_segments);
  }
  raw.retx = r.retransmissions;
  raw.segs_sent += raw.retx;
  raw.timeouts = r.timeouts;
  raw.ticks = r.bg_ticks;
  return raw;
}

/// Fluid cost per coupling tick, measured on a model built with the
/// aggregate's own parameters and advanced over `ticks` coupling steps.
double fluid_ns_per_tick(const workload::FctWorkloadConfig& cfg,
                         std::uint64_t ticks) {
  if (ticks == 0) return 0.0;
  hybrid::FluidBackgroundConfig hcfg;
  fluid::FluidParams p;
  p.capacity_pps = cfg.link_bps / (8.0 * hcfg.mtu_bytes);
  p.flows = static_cast<double>(cfg.background_flows);
  p.rtt = cfg.background_rtt;
  p.g = hcfg.g;
  p.marking = workload::fct_fluid_marking(cfg.scheme);
  p.dynamic_rtt = true;
  fluid::FluidModel model(p, cfg.background_fluid_dt);
  model.reset({1.0, 0.0, 0.0});
  const double couple_dt = cfg.background_couple_dt > 0.0
                               ? cfg.background_couple_dt
                               : cfg.background_rtt / 4.0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 1; i <= ticks; ++i) {
    model.advance_to(static_cast<double>(i) * couple_dt);
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ticks);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "dumbbell" || name == "fattree" || name == "hybrid";
}

std::size_t inputs_per_run(const std::string& workload) {
  return workload == "hybrid" ? kHybridInputs : 1;
}

bool setup_from_full_run(const std::string& workload) {
  return workload == "fattree";
}

RunOutput run_entry(const Scenario& sc, bool zero_length) {
  RunOutput out;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (sc.workload == "dumbbell") {
    core::DumbbellConfig cfg = dumbbell_config(sc);
    if (zero_length) {
      cfg.warmup = 0.0;
      cfg.measure = 0.0;
    }
    const core::DumbbellResult r = core::run_dumbbell(cfg);
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
    out.fingerprint = fingerprint(r);
    out.pkts = r.packets;
    if (!zero_length && r.packets == 0) out.problem = "no packets";
  } else if (sc.workload == "fattree") {
    const parsim::FabricResult r = parsim::run_fabric(fattree_config(sc));
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
    out.setup_s = out.wall_s - r.wall_seconds;
    out.fingerprint = fingerprint(r);
    out.pkts = r.fabric_packets;
    if (r.completed != r.flows) out.problem = "unfinished flows";
    if (!r.ledger_ok) out.problem = "cross-shard ledger broken";
    if (r.check_violations != 0) out.problem = "invariant violations";
  } else {
    workload::FctWorkloadConfig cfg = hybrid_config(sc);
    if (zero_length) {
      // No arrivals; the aggregate couples once and stops (a horizon of
      // 0 would mean "couple forever").
      cfg.duration = 0.0;
      cfg.background_horizon = 1e-9;
    }
    workload::FctWorkloadResult r = workload::run_fct_workload(cfg);
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
    const sim::Counters sw = switch_counters(r, fct_prefix(cfg));
    out.fingerprint = fingerprint(r, sw);
    out.pkts = sw.sent_packets;
    if (r.flows_completed != r.flows_started) out.problem = "unfinished flows";
    if (!zero_length && r.flows_started == 0) out.problem = "no flows";
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> layer_metric_names() {
  return {
      {"sim.events_per_pkt", "events/pkt"},
      {"sim.cancels_per_pkt", "cancels/pkt"},
      {"sim.clamps", "count"},
      {"sim.self_ns_per_pkt", "ns/pkt"},
      {"queue.calls_per_pkt", "calls/pkt"},
      {"queue.bypass_frac", "ratio"},
      {"queue.mark_frac", "ratio"},
      {"queue.drop_frac", "ratio"},
      {"queue.ns_per_call", "ns"},
      {"queue.self_ns_per_pkt", "ns/pkt"},
      {"stats.monitor_calls_per_pkt", "calls/pkt"},
      {"stats.monitor_ns_per_pkt", "ns/pkt"},
      {"tcp.deliver_calls_per_pkt", "calls/pkt"},
      {"tcp.retx_frac", "ratio"},
      {"tcp.timeouts", "count"},
      {"tcp.self_ns_per_pkt", "ns/pkt"},
      {"route.rebuilds", "count"},
      {"route.rebuild_ms", "ms"},
      {"route.self_ns_per_pkt", "ns/pkt"},
      {"setup.topology_s", "s"},
      {"setup.routes_s", "s"},
      {"setup.shards_s", "s"},
      {"setup.flows_s", "s"},
      {"parsim.rounds", "count"},
      {"parsim.windows", "count"},
      {"parsim.mailbox_per_pkt", "msgs/pkt"},
      {"parsim.busy_frac", "ratio"},
      {"parsim.sync_s", "s"},
      {"parsim.sync_ns_per_pkt", "ns/pkt"},
      {"parsim.imbalance", "ratio"},
      {"hybrid.ticks", "count"},
      {"fluid.ns_per_tick", "ns"},
      {"trace.run_ns_per_pkt", "ns/pkt"},
      {"trace.overhead_frac", "ratio"},
  };
}

std::string unwrapped_seams(const std::string& workload) {
  if (workload == "dumbbell") {
    return "none: every queue, the monitor and every TCP endpoint are wrapped";
  }
  if (workload == "fattree") {
    return "host NIC queues (built inside sim::build_fat_tree; their calls "
           "count toward tcp.self when a delivery sends, else sim.self)";
  }
  return "bottleneck queue (the fluid coupler needs its queue::FifoBase) and "
         "every TCP endpoint (PoissonFlowGenerator binds them internally); "
         "fluid coupling ticks run as kernel events";
}

TracedOutput run_traced(const Scenario& sc) {
  // Wall time spans the whole rebuild, tear-down included, like the
  // entry-point call it is compared against.
  Raw raw;
  const auto t0 = Clock::now();
  if (sc.workload == "dumbbell") {
    raw = traced_dumbbell(dumbbell_config(sc));
  } else if (sc.workload == "fattree") {
    raw = traced_fattree(fattree_config(sc));
  } else {
    raw = traced_hybrid(hybrid_config(sc));
  }
  raw.wall_s = seconds_since(t0);
  if (sc.workload == "hybrid") {
    raw.fluid_ns_per_tick = fluid_ns_per_tick(hybrid_config(sc), raw.ticks);
  }

  TracedOutput out;
  out.fingerprint = raw.fingerprint;
  out.problem = raw.problem;
  out.wall_s = raw.wall_s;
  out.run_s = raw.run_s;
  if (raw.pkts == 0) {
    out.problem = "no packets";
    return out;
  }
  const double pkts = static_cast<double>(raw.pkts);
  const auto per_pkt = [&](double v) { return v / pkts; };
  const auto ns_per_pkt = [&](double s) { return 1e9 * s / pkts; };
  const auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const LayerTotals& L = raw.layers;
  const double queue_s = 1e-9 * static_cast<double>(L.ns(Layer::kQueue));
  const double stats_s = 1e-9 * static_cast<double>(L.ns(Layer::kStats));
  const double tcp_s = 1e-9 * static_cast<double>(L.ns(Layer::kTcp));
  const double route_s = 1e-9 * static_cast<double>(L.ns(Layer::kRoute));
  const double self_s = raw.run_s - raw.sync_s - queue_s - stats_s - tcp_s - route_s;
  out.layer_sum_s = self_s + queue_s + stats_s + tcp_s + route_s + raw.sync_s;
  const std::uint64_t queue_calls = L.n(Layer::kQueue);
  const std::uint64_t rebuilds = L.n(Layer::kRoute);

  std::map<std::string, std::pair<double, bool>> v;  // value, exact
  const auto exact = [&](const char* name, double x) { v[name] = {x, true}; };
  const auto timed = [&](const char* name, double x) { v[name] = {x, false}; };
  exact("sim.events_per_pkt", per_pkt(static_cast<double>(raw.events)));
  exact("sim.cancels_per_pkt", per_pkt(static_cast<double>(raw.cancels)));
  exact("sim.clamps", static_cast<double>(raw.clamps));
  timed("sim.self_ns_per_pkt", ns_per_pkt(self_s));
  exact("queue.calls_per_pkt", per_pkt(static_cast<double>(queue_calls)));
  exact("queue.bypass_frac", frac(raw.queue.bypassed, raw.queue.offered));
  exact("queue.mark_frac", frac(raw.queue.marked, raw.queue.offered));
  exact("queue.drop_frac", frac(raw.queue.dropped, raw.queue.offered));
  timed("queue.ns_per_call",
        queue_calls == 0 ? 0.0 : 1e9 * queue_s / static_cast<double>(queue_calls));
  timed("queue.self_ns_per_pkt", ns_per_pkt(queue_s));
  exact("stats.monitor_calls_per_pkt",
        per_pkt(static_cast<double>(L.n(Layer::kStats))));
  timed("stats.monitor_ns_per_pkt", ns_per_pkt(stats_s));
  exact("tcp.deliver_calls_per_pkt",
        per_pkt(static_cast<double>(L.n(Layer::kTcp))));
  exact("tcp.retx_frac", frac(raw.retx, raw.segs_sent));
  exact("tcp.timeouts", static_cast<double>(raw.timeouts));
  timed("tcp.self_ns_per_pkt", ns_per_pkt(tcp_s));
  exact("route.rebuilds", static_cast<double>(rebuilds));
  timed("route.rebuild_ms",
        rebuilds == 0 ? 0.0 : 1e3 * route_s / static_cast<double>(rebuilds));
  timed("route.self_ns_per_pkt", ns_per_pkt(route_s));
  timed("setup.topology_s", raw.topology_s);
  timed("setup.routes_s", raw.routes_s);
  timed("setup.shards_s", raw.shards_s);
  timed("setup.flows_s", raw.flows_s);
  exact("parsim.rounds", static_cast<double>(raw.rounds));
  exact("parsim.windows", static_cast<double>(raw.windows));
  exact("parsim.mailbox_per_pkt", per_pkt(static_cast<double>(raw.mailbox)));
  timed("parsim.busy_frac", raw.busy_frac);
  timed("parsim.sync_s", raw.sync_s);
  timed("parsim.sync_ns_per_pkt", ns_per_pkt(raw.sync_s));
  timed("parsim.imbalance", raw.imbalance);
  exact("hybrid.ticks", static_cast<double>(raw.ticks));
  timed("fluid.ns_per_tick", raw.fluid_ns_per_tick);
  timed("trace.run_ns_per_pkt", ns_per_pkt(raw.run_s));
  // Report order and units come from the one table; the overhead row
  // needs untraced runs too and is added by the caller.
  for (const auto& [name, unit] : layer_metric_names()) {
    if (name == "trace.overhead_frac") continue;
    const auto& [x, is_exact] = v.at(name);
    out.layers.push_back({name, x, unit, is_exact});
  }
  return out;
}

}  // namespace perfbench
