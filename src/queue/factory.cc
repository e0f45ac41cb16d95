#include "queue/factory.h"

#include "queue/pie.h"
#include "queue/red.h"

namespace dtdctcp::queue {

sim::QueueFactory MarkingRule::queue_factory(std::size_t limit_bytes,
                                             std::size_t limit_packets,
                                             DataRate drain_bps) const {
  switch (kind) {
    case MarkingKind::kDropTail:
      break;
    case MarkingKind::kThreshold:
      return [limit_bytes, limit_packets, k = k_start, u = unit,
              at = mark_point] {
        return std::make_unique<EcnThresholdQueue>(limit_bytes, limit_packets,
                                                   k, u, at);
      };
    case MarkingKind::kHysteresis:
      return [limit_bytes, limit_packets, k1 = k_start, k2 = k_stop,
              u = unit, v = variant] {
        return std::make_unique<EcnHysteresisQueue>(limit_bytes, limit_packets,
                                                    k1, k2, u, v);
      };
    case MarkingKind::kRed:
      return [limit_bytes, limit_packets, cfg = red] {
        return std::make_unique<RedQueue>(limit_bytes, limit_packets, cfg);
      };
    case MarkingKind::kPie:
      return [limit_bytes, limit_packets, cfg = pie, drain_bps] {
        return std::make_unique<PieQueue>(limit_bytes, limit_packets, cfg,
                                          drain_bps);
      };
    case MarkingKind::kCodel:
      return [limit_bytes, limit_packets, cfg = codel] {
        return std::make_unique<CodelQueue>(limit_bytes, limit_packets, cfg);
      };
  }
  return queue::drop_tail(limit_bytes, limit_packets);
}

}  // namespace dtdctcp::queue
