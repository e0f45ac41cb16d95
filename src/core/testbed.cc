#include "core/testbed.h"

#include <string>

#include "queue/factory.h"

namespace dtdctcp::core {

Testbed build_testbed(const TestbedConfig& cfg) {
  Testbed tb;
  tb.net = std::make_unique<sim::Network>();
  sim::Network& net = *tb.net;

  sim::Switch& sw1 = net.add_switch("sw1");
  tb.core_switch = &sw1;

  const auto plain = queue::drop_tail(cfg.edge_buffer_bytes, 0);
  const auto host_nic = queue::drop_tail(0, 0);

  // Aggregator on Switch 1; its ingress direction (sw1 -> aggregator) is
  // the bottleneck port carrying the marking discipline and the 128 KB
  // buffer.
  sim::Host& agg = net.add_host("aggregator");
  tb.aggregator = &agg;
  tb.bottleneck_port = net.attach_host(
      agg, sw1, cfg.link_bps, cfg.host_link_delay, host_nic,
      cfg.marking.queue_factory(cfg.bottleneck_buffer_bytes, 0, cfg.link_bps));

  // Three edge switches, workers spread round-robin.
  sim::Switch* edges[3] = {nullptr, nullptr, nullptr};
  for (int i = 0; i < 3; ++i) {
    edges[i] = &net.add_switch("sw" + std::to_string(i + 2));
    net.connect_switches(sw1, *edges[i], cfg.link_bps, cfg.trunk_link_delay,
                         plain, plain);
  }
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    sim::Host& h = net.add_host("worker" + std::to_string(w));
    net.attach_host(h, *edges[w % 3], cfg.link_bps, cfg.host_link_delay,
                    host_nic, plain);
    tb.workers.push_back(&h);
  }
  net.build_routes();
  return tb;
}

}  // namespace dtdctcp::core
