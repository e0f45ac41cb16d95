// FCT workload harness: empirical flow-size mixes x marking schemes on
// a many-to-one bottleneck — the repeatable flow-completion-time
// benchmark behind bench/ext_fct_workloads.
//
// Topology per run: N sender hosts (fast edge links) -> 1 switch -> 1
// sink host behind the bottleneck link, where the marking scheme under
// test runs on the switch's sink-facing egress queue. An open-loop
// Poisson process (workload::PoissonFlowGenerator) draws flow sizes
// from one of the empirical distributions in workload/flow_sampler.h
// and offers a fixed fraction of the bottleneck capacity.
//
// Every flow's lifecycle lands in a tcp::FlowMetricsCollector, and the
// whole run is summarized twice: as a plain FctWorkloadResult struct
// (what the bench tabulates) and as a stats::MetricsRegistry carried
// inside it (what gets exported as JSON/CSV). format_fct_row() renders
// the one canonical table row — the bench prints it and the
// serial-vs-parallel determinism test compares it, so "byte-identical
// output" is pinned at the formatting layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fluid/marking.h"
#include "hybrid/fluid_background.h"
#include "queue/factory.h"
#include "queue/multi_queue.h"
#include "sim/counters.h"
#include "sim/network.h"
#include "sim/queue_monitor.h"
#include "stats/metrics.h"
#include "tcp/config.h"
#include "tcp/flow_metrics.h"
#include "util/units.h"
#include "workload/flow_sampler.h"
#include "workload/long_lived.h"
#include "workload/poisson_flows.h"

namespace dtdctcp::workload {

/// Which empirical size distribution drives the arrivals.
enum class FctWorkloadKind { kWebSearch, kDataMining, kQueryBackground };

/// The bottleneck rules the FCT benches compare, in packets: DCTCP K = 20,
/// DT-DCTCP K1/K2 = 15/25 (trend-peak loop or half-band), drop-tail, and
/// datacenter-default CoDel and PIE. Any other MarkingRule works too.
struct FctScheme {
  using Rule = queue::MarkingRule;
  static constexpr Rule kDctcp = Rule::dctcp(20.0);
  static constexpr Rule kDtLoop = Rule::dt_dctcp(15.0, 25.0);
  static constexpr Rule kDtBand =
      Rule::dt_dctcp(15.0, 25.0, queue::ThresholdUnit::kPackets,
                     queue::HysteresisVariant::kHalfBand);
  static constexpr Rule kDropTail = Rule::drop_tail();
  static constexpr Rule kCodel = Rule::aqm(queue::CodelConfig{});
  static constexpr Rule kPie = Rule::aqm(queue::PieConfig{});
};

inline const char* fct_workload_name(FctWorkloadKind k) {
  switch (k) {
    case FctWorkloadKind::kWebSearch: return "websearch";
    case FctWorkloadKind::kDataMining: return "datamining";
    case FctWorkloadKind::kQueryBackground: return "querybg";
  }
  return "?";
}

/// Row name of a scheme in tables and metric prefixes: its kind (and
/// hysteresis reading), not its thresholds.
inline const char* fct_scheme_name(const queue::MarkingRule& s) {
  using queue::HysteresisVariant;
  switch (s.kind) {
    case queue::MarkingKind::kThreshold: return "dctcp";
    case queue::MarkingKind::kHysteresis:
      return s.variant == HysteresisVariant::kHalfBand       ? "dt-band"
             : s.variant == HysteresisVariant::kDrainToStart ? "dt-drain"
                                                             : "dt-loop";
    case queue::MarkingKind::kDropTail: return "droptail";
    case queue::MarkingKind::kRed: return "red";
    case queue::MarkingKind::kPie: return "pie";
    case queue::MarkingKind::kCodel: return "codel";
  }
  return "?";
}

inline FlowSizeDist fct_workload_sizes(FctWorkloadKind k) {
  switch (k) {
    case FctWorkloadKind::kWebSearch: return web_search_sizes();
    case FctWorkloadKind::kDataMining: return data_mining_sizes();
    case FctWorkloadKind::kQueryBackground: return query_background_sizes();
  }
  return web_search_sizes();
}

/// Queue factory for the bottleneck egress: buffer `buffer_pkts` deep,
/// marking per the scheme. `link_bps` is the drain rate of the port the
/// queue will serve (PIE's delay estimator needs it).
inline sim::QueueFactory fct_marking(const queue::MarkingRule& s,
                                     std::size_t buffer_pkts,
                                     double link_bps = units::gbps(1)) {
  return s.queue_factory(0, buffer_pkts, link_bps);
}

/// How a background share of long-lived flows is realized.
enum class FctBackgroundMode {
  kPacket,  ///< one real TCP connection per flow, on up to 32 dedicated
            ///< hosts (the cross-validation baseline; cost grows with N)
  kFluid,   ///< one hybrid::FluidBackground aggregate on the bottleneck
            ///< (O(1) in N — the scalable hybrid path)
};

/// Rule the fluid aggregate runs: the bottleneck's own, in packets, or
/// FctScheme::kDctcp when the (ECN-driven) fluid model cannot run it.
inline queue::MarkingRule fct_fluid_marking(const queue::MarkingRule& s) {
  constexpr double kMss = 1500.0;  // tcp::TcpConfig's default
  return fluid::MarkingAutomaton::models(s) ? s.in_packets(kMss)
                                            : FctScheme::kDctcp;
}

struct FctWorkloadConfig {
  FctWorkloadKind kind = FctWorkloadKind::kWebSearch;
  queue::MarkingRule scheme = FctScheme::kDctcp;  ///< bottleneck rule
  double load = 0.6;            ///< offered fraction of bottleneck capacity
  SimTime duration = 0.5;       ///< arrival window; flows may finish later
  std::size_t senders = 8;
  double link_bps = units::gbps(1);  ///< bottleneck; edges run 10x this
  std::size_t buffer_pkts = 250;
  std::uint64_t seed = 1;
  tcp::CcMode cc_mode = tcp::CcMode::kDctcp;
  /// When > 0, every flow gets deadline = arrival + flow_deadline and
  /// the result carries met/missed counts (pair with CcMode::kD2tcp).
  SimTime flow_deadline = 0.0;

  // Shared switch buffer. When enabled, every switch egress queue (the
  // bottleneck plus the ACK-return ports) charges one DT-managed pool;
  // `buffer_pkts` then acts as the per-port cap (0 = pool-only).
  bool use_shared_pool = false;
  std::size_t pool_capacity_pkts = 0;  ///< MTU packets; 0 = unlimited pool
  double pool_alpha = 0.0;             ///< DT coefficient; 0 = no DT cap
  std::size_t pool_headroom_pkts = 0;  ///< guaranteed per-port reserve
  bool pool_ecn = false;               ///< mark on shared, not port, depth

  /// >= 2 wraps the bottleneck egress in a MultiQueueDisc of that many
  /// classes — each class its own fct_marking instance (and, with the
  /// shared pool on, its own pooled wrapper charging the pool) — and
  /// stamps every flow's priority from its sampled size: class bounds
  /// split at the generator's small/large cutoffs, so short flows ride
  /// class 0 (PBS-style size tagging). 0 or 1 = single queue (legacy).
  std::size_t priority_classes = 0;
  queue::SchedPolicy sched_policy = queue::SchedPolicy::kStrictPriority;

  // Background share (hybrid co-simulation, src/hybrid). When
  // background_flows > 0, that many long-lived flows contend for the
  // bottleneck alongside the Poisson foreground — either as real packet
  // connections or collapsed into one fluid aggregate.
  std::size_t background_flows = 0;
  FctBackgroundMode background_mode = FctBackgroundMode::kFluid;
  double background_rtt = 1e-4;       ///< aggregate R0, seconds
  SimTime background_couple_dt = 0.0; ///< coupling cadence; <= 0 -> R0/4
  SimTime background_fluid_dt = 0.0;  ///< RK4 step; <= 0 -> R0/200
  /// Fluid coupling window; <= 0 -> `duration` (couple through the
  /// arrival window, then freeze the gauges so the run can drain —
  /// and, in the zero-flow identity case, so the final event time
  /// matches the packet-only run exactly).
  SimTime background_horizon = 0.0;
  /// Attach the fluid coupler even with background_flows == 0: an inert
  /// aggregate that publishes exactly 0.0 occupancy / 1.0 rate every
  /// tick. Exists so the byte-identity anchor exercises the complete
  /// coupling plumbing, not just its absence.
  bool attach_inert_background = false;
};

struct FctWorkloadResult {
  std::size_t flows_started = 0;
  std::size_t flows_completed = 0;
  double fct_mean = 0.0, fct_p50 = 0.0, fct_p99 = 0.0, fct_max = 0.0;
  double small_p50 = 0.0, small_p99 = 0.0;
  double large_mean = 0.0, large_p99 = 0.0;
  std::uint64_t retransmissions = 0, timeouts = 0, marks_seen = 0;
  std::uint64_t drops = 0, marked_pkts = 0;
  std::uint64_t deadline_flows = 0, deadline_missed = 0;
  double queue_mean_pkts = 0.0, queue_max_pkts = 0.0;
  std::uint64_t pool_peak_bytes = 0;  ///< shared-pool high-water (0: no pool)
  // Background share (zeros when background_flows == 0).
  double bg_share_mean = 0.0;     ///< fluid: time-mean link share claimed
  double bg_queue_mean_pkts = 0.0;///< fluid: time-mean aggregate queue
  std::uint64_t bg_ticks = 0;     ///< fluid: coupling samples published
  std::int64_t bg_acked_segments = 0;  ///< packet: background goodput proxy
  /// Full observability export for this run (JSON/CSV via
  /// maybe_export). Value-semantic so results ride through
  /// runner::run_jobs unchanged.
  stats::MetricsRegistry metrics;
};

inline FctWorkloadResult run_fct_workload(const FctWorkloadConfig& cfg) {
  constexpr std::size_t kMtu = 1500;  // tcp::TcpConfig default MSS
  // Declared before the network so queues can release their backlog
  // into the pool from their destructors at teardown.
  std::optional<sim::SharedBufferPool> pool;
  if (cfg.use_shared_pool) pool.emplace(cfg.pool_capacity_pkts * kMtu);
  const auto pool_wrap = [&](sim::QueueFactory f,
                             queue::EcnOccupancySource src) {
    if (!pool.has_value()) return f;
    sim::PortShare share;
    share.alpha = cfg.pool_alpha;
    // Clamped so the per-port guarantees always fit the pool however
    // many ports share it (sink + ACK-return, cfg.senders + 1 total).
    std::size_t hr_pkts = cfg.pool_headroom_pkts;
    if (cfg.pool_capacity_pkts > 0) {
      hr_pkts = std::min(hr_pkts, cfg.pool_capacity_pkts / (cfg.senders + 1));
    }
    share.headroom_bytes = hr_pkts * kMtu;
    return queue::pooled(std::move(f), *pool, share, src,
                         static_cast<double>(kMtu));
  };

  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_host("sink");
  const auto edge = queue::drop_tail(0, 0);
  // The contended queue is the switch's sink-facing egress. With
  // priority classes the multi-queue wraps per-class pooled markers, so
  // each class runs its own AQM and charges the pool under its own DT
  // share.
  sim::QueueFactory bottleneck =
      pool_wrap(fct_marking(cfg.scheme, cfg.buffer_pkts, cfg.link_bps),
                cfg.pool_ecn ? queue::EcnOccupancySource::kSharedPool
                             : queue::EcnOccupancySource::kPortQueue);
  if (cfg.priority_classes >= 2) {
    bottleneck = queue::multi_queue(cfg.priority_classes, bottleneck,
                                    cfg.sched_policy);
  }
  const std::size_t sink_port =
      net.attach_host(sink, sw, cfg.link_bps, 25e-6, edge, bottleneck);
  std::vector<sim::Host*> senders;
  senders.reserve(cfg.senders);
  for (std::size_t i = 0; i < cfg.senders; ++i) {
    auto& h = net.add_host("h" + std::to_string(i));
    net.attach_host(h, sw, 10.0 * cfg.link_bps, 25e-6, edge,
                    pool_wrap(edge, queue::EcnOccupancySource::kPortQueue));
    senders.push_back(&h);
  }
  // Packet-mode background flows get dedicated hosts (capped at 32 —
  // connections beyond that share hosts round-robin) so the foreground
  // edge links stay uncongested and only the bottleneck is contended.
  std::vector<sim::Host*> bg_hosts;
  const bool bg_packet = cfg.background_flows > 0 &&
                         cfg.background_mode == FctBackgroundMode::kPacket;
  if (bg_packet) {
    const std::size_t n = std::min<std::size_t>(cfg.background_flows, 32);
    bg_hosts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& h = net.add_host("bg" + std::to_string(i));
      net.attach_host(h, sw, 10.0 * cfg.link_bps, 25e-6, edge,
                      pool_wrap(edge, queue::EcnOccupancySource::kPortQueue));
      bg_hosts.push_back(&h);
    }
  }
  net.build_routes();

  sim::QueueMonitor monitor;
  monitor.attach(sw.port(sink_port).disc());

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = cfg.cc_mode;
  tcp_cfg.min_rto = 0.01;  // datacenter-tuned, as in the FCT-vs-load bench
  tcp_cfg.init_rto = 0.01;

  PoissonConfig pcfg;
  pcfg.sizes = fct_workload_sizes(cfg.kind);
  pcfg.arrivals_per_sec = arrival_rate_for_load(cfg.load, cfg.link_bps,
                                                pcfg.sizes, tcp_cfg.mss_bytes);
  pcfg.duration = cfg.duration;
  pcfg.seed = cfg.seed;
  pcfg.flow_deadline = cfg.flow_deadline;
  if (cfg.priority_classes >= 2) {
    pcfg.priority_bounds.push_back(pcfg.small_cutoff_segments);
    if (cfg.priority_classes >= 3) {
      pcfg.priority_bounds.push_back(pcfg.large_cutoff_segments);
    }
  }

  tcp::FlowMetricsCollector collector(pcfg.small_cutoff_segments,
                                      pcfg.large_cutoff_segments);
  PoissonFlowGenerator gen(net, senders, {&sink}, tcp_cfg, pcfg);
  gen.set_collector(&collector);

  // Background share. Both declared after `net` so they are destroyed
  // first (the fluid coupler detaches its gauges from the live port).
  std::optional<LongLivedGroup> bg_group;
  if (bg_packet) {
    std::vector<sim::Host*> sources(cfg.background_flows);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      sources[i] = bg_hosts[i % bg_hosts.size()];
    }
    bg_group.emplace(net, sources, sink, tcp_cfg,
                     /*start_spread=*/10.0 * cfg.background_rtt,
                     cfg.seed ^ 0x9e3779b97f4a7c15ull);
  }
  std::optional<hybrid::FluidBackground> fluid_bg;
  if ((cfg.background_flows > 0 &&
       cfg.background_mode == FctBackgroundMode::kFluid) ||
      cfg.attach_inert_background) {
    hybrid::FluidBackgroundConfig hcfg;
    hcfg.flows = cfg.background_mode == FctBackgroundMode::kFluid
                     ? static_cast<double>(cfg.background_flows)
                     : 0.0;
    hcfg.rtt = cfg.background_rtt;
    hcfg.marking = fct_fluid_marking(cfg.scheme);
    hcfg.couple_dt = cfg.background_couple_dt;
    hcfg.fluid_dt = cfg.background_fluid_dt;
    hcfg.horizon =
        cfg.background_horizon > 0.0 ? cfg.background_horizon : cfg.duration;
    fluid_bg.emplace(hcfg, cfg.link_bps);
    fluid_bg->attach(sw.port(sink_port));
  }

  gen.start(0.0);
  if (bg_group.has_value()) {
    // Packet background flows are infinite sources — the event queue
    // never empties. Run in bounded slices until the foreground
    // completes (or a drain cap), then freeze.
    const SimTime cap = 3.0 * cfg.duration + 0.5;
    const SimTime chunk = std::max(cfg.duration / 100.0, 1e-3);
    net.sim().run_until(cfg.duration);
    while (gen.flows_completed() < gen.flows_started() &&
           net.sim().now() < cap) {
      net.sim().run_until(net.sim().now() + chunk);
    }
  } else {
    // Packet-only and hybrid paths both run to event-queue exhaustion:
    // the fluid coupler stops rescheduling at its horizon (default: the
    // arrival window), which always precedes the last foreground event,
    // so the final simulated time — and with an inert aggregate, every
    // byte of output — matches the packet-only run.
    net.sim().run();
  }
  monitor.finish(net.sim().now());

  FctWorkloadResult r;
  r.flows_started = gen.flows_started();
  r.flows_completed = gen.flows_completed();
  auto& all = collector.fct_all();
  if (all.count() > 0) {
    r.fct_mean = all.mean();
    r.fct_p50 = all.median();
    r.fct_p99 = all.p99();
    r.fct_max = all.max();
  }
  auto& small = collector.fct_small();
  if (small.count() > 0) {
    r.small_p50 = small.median();
    r.small_p99 = small.p99();
  }
  auto& large = collector.fct_large();
  if (large.count() > 0) {
    r.large_mean = large.mean();
    r.large_p99 = large.p99();
  }
  r.retransmissions = collector.retransmissions();
  r.timeouts = collector.timeouts();
  r.marks_seen = collector.marks_seen();
  r.deadline_flows = collector.deadline_flows();
  r.deadline_missed = collector.deadline_missed();
  const sim::Counters sc = sw.counters();
  r.drops = sc.dropped;
  r.marked_pkts = sc.marked;
  r.queue_mean_pkts = monitor.packets().mean();
  r.queue_max_pkts = monitor.packets().max();

  const std::string prefix = std::string("fct.") +
                             fct_workload_name(cfg.kind) + "." +
                             fct_scheme_name(cfg.scheme);
  collector.export_to(r.metrics, prefix);
  monitor.export_to(r.metrics, prefix + ".queue");
  sim::export_counters(r.metrics, prefix + ".switch", sc);
  if (pool.has_value()) {
    r.pool_peak_bytes = pool->peak_used();
    r.metrics.gauge(prefix + ".pool.peak_bytes")
        .set(static_cast<double>(r.pool_peak_bytes));
  }
  // Background metrics only when a share was requested, so zero-share
  // hybrid exports stay byte-identical to packet-only exports.
  if (cfg.background_flows > 0) {
    if (fluid_bg.has_value()) {
      r.bg_share_mean = fluid_bg->mean_share();
      r.bg_queue_mean_pkts = fluid_bg->mean_queue_pkts();
      r.bg_ticks = fluid_bg->ticks();
      fluid_bg->export_to(r.metrics, prefix + ".bg.fluid");
    }
    if (bg_group.has_value()) {
      r.bg_acked_segments = bg_group->total_acked();
      r.metrics.gauge(prefix + ".bg.packet.acked_segments")
          .set(static_cast<double>(r.bg_acked_segments));
      r.metrics.gauge(prefix + ".bg.packet.timeouts")
          .set(static_cast<double>(bg_group->total_timeouts()));
    }
    r.metrics.gauge(prefix + ".bg.flows")
        .set(static_cast<double>(cfg.background_flows));
  }
  return r;
}

/// The canonical fixed-width table row for one run. Both the bench's
/// stdout table and the determinism test go through here, so the
/// serial-vs-parallel byte-identity guarantee covers exactly what the
/// user sees.
inline std::string format_fct_row(const FctWorkloadConfig& cfg,
                                  const FctWorkloadResult& r) {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-11s %-8s | %6zu %6zu | %9.3f %9.3f %9.3f | %9.3f %9.2f | %8.1f | "
      "%5llu %5llu %8llu",
      fct_workload_name(cfg.kind), fct_scheme_name(cfg.scheme),
      r.flows_started, r.flows_completed, r.fct_mean * 1e3, r.fct_p50 * 1e3,
      r.fct_p99 * 1e3, r.small_p99 * 1e3, r.large_mean * 1e3,
      r.queue_mean_pkts, static_cast<unsigned long long>(r.timeouts),
      static_cast<unsigned long long>(r.drops),
      static_cast<unsigned long long>(r.marks_seen));
  return std::string(buf);
}

/// Column header matching format_fct_row.
inline std::string fct_row_header() {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-11s %-8s | %6s %6s | %9s %9s %9s | %9s %9s | %8s | %5s %5s %8s",
      "workload", "scheme", "start", "done", "mean_ms", "p50_ms", "p99_ms",
      "sm_p99", "lg_mean", "q_pkts", "to", "drop", "marks");
  return std::string(buf);
}

}  // namespace dtdctcp::workload
