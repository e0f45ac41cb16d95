#include "core/dumbbell.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "parsim/partition.h"
#include "parsim/shard_runner.h"
#include "parsim/sharded_network.h"
#include "queue/factory.h"
#include "sim/network.h"
#include "sim/queue_monitor.h"
#include "workload/long_lived.h"

namespace dtdctcp::core {

DumbbellResult run_dumbbell(const DumbbellConfig& cfg) {
  sim::Network net;

  // Topology: each sender has its own edge link into the switch; the
  // switch's egress toward the sink is the bottleneck carrying the
  // marking discipline. Propagation RTT = 2 * (edge + bottleneck).
  const SimTime leg = cfg.rtt / 4.0;
  sim::Switch& sw = net.add_switch("sw0");
  sim::Host& sink = net.add_host("sink");

  const auto edge_queue = queue::drop_tail(0, 0);
  const sim::QueueFactory bneck_queue = cfg.marking.queue_factory(
      cfg.switch_buffer_bytes, cfg.switch_buffer_packets, cfg.bottleneck_bps);
  const std::size_t bneck_port = net.attach_host(
      sink, sw, cfg.bottleneck_bps, leg, edge_queue, bneck_queue);

  std::vector<sim::Host*> senders;
  senders.reserve(cfg.flows);
  for (std::size_t i = 0; i < cfg.flows; ++i) {
    sim::Host& h = net.add_host("sender" + std::to_string(i));
    // Reverse direction (switch -> sender) carries only ACKs; plain FIFO.
    net.attach_host(h, sw, cfg.edge_bps, leg, edge_queue, edge_queue);
    senders.push_back(&h);
  }
  net.build_routes();

  sim::QueueMonitor monitor;
  monitor.attach(sw.port(bneck_port).disc(), cfg.trace_queue);

  workload::LongLivedGroup group(net, senders, sink, cfg.tcp,
                                 cfg.start_spread, cfg.seed);

  // shards == 1 routes every advance through the parsim window
  // protocol; with one shard the lookahead is infinite, so each command
  // degenerates to the exact serial run_until (pinned byte-identical by
  // tests).
  if (cfg.shards > 1) {
    throw std::invalid_argument(
        "run_dumbbell: shards > 1 unsupported (alpha sampler reads "
        "cross-shard state); use parsim::run_fabric");
  }
  std::unique_ptr<parsim::ShardedNetwork> sharded;
  std::unique_ptr<parsim::ShardRunner> shard_runner;
  if (cfg.shards == 1) {
    sharded = std::make_unique<parsim::ShardedNetwork>(
        net, parsim::Partition::single(net.nodes().size()));
    shard_runner = std::make_unique<parsim::ShardRunner>(*sharded);
  }
  auto advance = [&](SimTime t) {
    if (shard_runner != nullptr) {
      shard_runner->run_until(t);
    } else {
      net.sim().run_until(t);
    }
  };

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
  advance(cfg.warmup);
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
  advance(end);
  monitor.finish(end);

  const auto& disc = sw.port(bneck_port).disc();
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
  result.packets = sw.port(bneck_port).packets_sent();

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
