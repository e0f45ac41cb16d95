#include "sim/star.h"

#include <string>

#include "queue/factory.h"

namespace dtdctcp::sim {

Star build_star(Network& net, const StarConfig& cfg,
                const QueueFactory& bottleneck,
                const QueueFactory& ack_return) {
  const QueueFactory nic = queue::drop_tail(0, 0);
  const QueueFactory& ack = ack_return != nullptr ? ack_return : nic;

  Star star;
  star.sw = &net.add_switch("sw");
  star.sink = &net.add_host("sink");
  star.bottleneck_port = net.attach_host(*star.sink, *star.sw,
                                         cfg.bottleneck_bps, cfg.leg, nic,
                                         bottleneck);
  star.senders.reserve(cfg.senders);
  for (std::size_t i = 0; i < cfg.senders; ++i) {
    Host& h = net.add_host(numbered("h", i));
    net.attach_host(h, *star.sw, cfg.edge_bps, cfg.leg, nic, ack);
    star.senders.push_back(&h);
  }
  net.build_routes();
  return star;
}

}  // namespace dtdctcp::sim
