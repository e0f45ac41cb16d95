#include "sim/switch.h"

#include <utility>

#include "check/hook.h"
#include "util/log.h"

namespace dtdctcp::sim {

void Switch::set_routes(NodeId dst, std::span<const std::uint32_t> ports) {
  if (routes_.size() <= dst) routes_.resize(dst + 1);
  routes_[dst].assign(ports.begin(), ports.end());
}

void Switch::receive(Packet pkt) {
  const std::vector<std::uint32_t>* group =
      pkt.dst < routes_.size() && !routes_[pkt.dst].empty()
          ? &routes_[pkt.dst]
          : nullptr;
  if (group == nullptr) {
    ++unrouted_drops_;
    DTDCTCP_CHECK_HOOK(packet_unrouted(this, pkt));
    logf(LogLevel::kWarn, "%s: no route for dst %u, dropping",
         name().c_str(), pkt.dst);
    return;
  }
  const std::size_t member =
      group->size() == 1 ? 0
                         : ecmp_pick(pkt.flow, group->size(), ecmp_salt_);
  ports_[(*group)[member]]->send(std::move(pkt));
}

}  // namespace dtdctcp::sim
