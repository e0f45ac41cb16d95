// Convenience factories producing sim::QueueFactory closures; a whole
// marking rule builds its queue with MarkingRule::queue_factory.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "queue/codel.h"
#include "queue/drop_tail.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "queue/marking_rule.h"
#include "sim/network.h"
#include "sim/shared_buffer.h"

namespace dtdctcp::queue {

inline sim::QueueFactory drop_tail(std::size_t limit_bytes,
                                   std::size_t limit_packets = 0) {
  return [=] { return std::make_unique<DropTailQueue>(limit_bytes, limit_packets); };
}

inline sim::QueueFactory ecn_threshold(std::size_t limit_bytes,
                                       std::size_t limit_packets, double k,
                                       ThresholdUnit unit) {
  return [=] {
    return std::make_unique<EcnThresholdQueue>(limit_bytes, limit_packets, k, unit);
  };
}

/// Wraps any queue factory so every produced discipline charges the
/// given shared pool under the DT share, optionally coupling its ECN
/// thresholds to the shared occupancy. Disciplines without pool support
/// pass through unchanged. The pool must outlive every queue produced.
inline sim::QueueFactory pooled(
    sim::QueueFactory base, sim::SharedBufferPool& pool,
    sim::PortShare share = {},
    EcnOccupancySource src = EcnOccupancySource::kPortQueue,
    double pool_packet_bytes = 1500.0) {
  return [base = std::move(base), &pool, share, src, pool_packet_bytes] {
    auto disc = base();
    if (auto* f = dynamic_cast<FifoBase*>(disc.get())) {
      f->set_shared_pool(&pool, share);
      f->set_ecn_source(src, pool_packet_bytes);
    } else if (auto* c = dynamic_cast<CodelQueue*>(disc.get())) {
      c->set_shared_pool(&pool, share);
    }
    return disc;
  };
}

}  // namespace dtdctcp::queue
