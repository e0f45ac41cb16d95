#include "core/dumbbell.h"

#include <functional>

#include "sim/queue_monitor.h"
#include "sim/star.h"
#include "workload/long_lived.h"

namespace dtdctcp::core {

DumbbellResult run_dumbbell(const DumbbellConfig& cfg) {
  // Each sender has its own edge link into the switch; the switch's
  // egress toward the sink is the bottleneck carrying the marking
  // discipline. Propagation RTT = 4 legs.
  sim::Network net;
  const sim::Star star = sim::build_star(
      net, {cfg.flows, cfg.bottleneck_bps, cfg.edge_bps, cfg.rtt / 4.0},
      cfg.marking.queue_factory(cfg.switch_buffer_bytes,
                                cfg.switch_buffer_packets,
                                cfg.bottleneck_bps));

  sim::QueueMonitor monitor;
  monitor.attach(star.bottleneck().disc(), cfg.trace_queue);

  workload::LongLivedGroup group(net, star.senders, *star.sink, cfg.tcp,
                                 cfg.start_spread, cfg.seed);

  DumbbellResult result;

  // Alpha sampling (only meaningful for DCTCP-mode senders).
  const SimTime alpha_every =
      cfg.alpha_sample_every > 0.0 ? cfg.alpha_sample_every : cfg.rtt;
  stats::Streaming alpha_stats;
  std::function<void()> sample_alpha = [&] {
    const double a = group.mean_alpha();
    alpha_stats.add(a);
    result.alpha_trace.add(net.sim().now(), a);
    net.sim().after(alpha_every, sample_alpha);
  };

  // Warmup, then reset statistics and measure.
  net.sim().run_until(cfg.warmup);
  monitor.reset_stats(cfg.warmup);
  const std::uint64_t sink_bytes_at_warmup = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      total += group.conn(i).receiver().bytes_received();
    }
    return total;
  }();
  net.sim().after(0.0, sample_alpha);

  const SimTime end = cfg.warmup + cfg.measure;
  net.sim().run_until(end);
  monitor.finish(end);

  const auto& disc = star.bottleneck().disc();
  result.queue_mean = monitor.packets().mean();
  result.queue_stddev = monitor.packets().stddev();
  result.queue_min = monitor.packets().min();
  result.queue_max = monitor.packets().max();
  if (cfg.trace_queue) result.queue_trace = monitor.trace();

  result.alpha_mean = alpha_stats.mean();
  result.marks = disc.marks();
  result.drops = disc.drops();
  result.timeouts = group.total_timeouts();
  result.events = net.sim().events_processed();
  result.packets = star.bottleneck().packets_sent();

  std::uint64_t sink_bytes_end = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    sink_bytes_end += group.conn(i).receiver().bytes_received();
  }
  const double delivered =
      static_cast<double>(sink_bytes_end - sink_bytes_at_warmup);
  result.goodput_bps = delivered * 8.0 / cfg.measure;
  result.utilization = result.goodput_bps / cfg.bottleneck_bps;
  return result;
}

}  // namespace dtdctcp::core
