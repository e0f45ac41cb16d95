#include "sim/switch.h"

#include <utility>

#include "check/hook.h"
#include "util/log.h"

namespace dtdctcp::sim {

void Switch::receive(Packet pkt) {
  const RouteEntry group =
      pkt.dst < routes_.size() ? routes_[pkt.dst] : RouteEntry{};
  if (group.size == 0) {
    ++unrouted_drops_;
    DTDCTCP_CHECK_HOOK(packet_unrouted(this, pkt));
    logf(LogLevel::kWarn, "%s: no route for dst %u, dropping",
         name().c_str(), pkt.dst);
    return;
  }
  const std::size_t member =
      group.size == 1 ? 0 : ecmp_pick(pkt.flow, group.size, ecmp_salt_);
  ports_[pool_[group.offset + member]]->send(std::move(pkt));
}

}  // namespace dtdctcp::sim
