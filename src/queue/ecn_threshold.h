// DCTCP's single-threshold instantaneous ECN marking (the "relay").
//
// Default (the DCTCP switch configuration): an arriving ECN-capable
// packet is marked with CE when the instantaneous queue occupancy is at
// least K upon its arrival (occupancy measured before the packet
// joins). With `MarkPoint::kDequeue` the decision is instead taken when
// the packet departs, against the occupancy left behind — the marking
// is one queueing delay fresher, an ablation several post-DCTCP works
// studied. Non-ECT packets are never marked (they can only be dropped
// by the buffer limit).
#pragma once

#include "queue/fifo_base.h"

namespace dtdctcp::queue {

class EcnThresholdQueue final : public FifoBase {
 public:
  /// `k` is the marking threshold expressed in `unit`.
  EcnThresholdQueue(std::size_t limit_bytes, std::size_t limit_packets,
                    double k, ThresholdUnit unit,
                    MarkPoint mark_point = MarkPoint::kArrival)
      : FifoBase(limit_bytes, limit_packets), k_(k), unit_(unit),
        mark_point_(mark_point) {}

  double threshold() const { return k_; }
  ThresholdUnit unit() const { return unit_; }
  MarkPoint mark_point() const { return mark_point_; }

 protected:
  // `final` so the common DCTCP switch configuration devirtualizes:
  // FifoBase's do_enqueue/do_dequeue calls into these resolve statically
  // once the concrete type is known.
  bool before_admit(sim::Packet& pkt, SimTime now) final {
    (void)now;
    if (mark_point_ == MarkPoint::kArrival && pkt.ect &&
        occupancy(unit_) >= k_) {
      pkt.ce = true;
      count_mark();
    }
    return true;
  }

  void after_dequeue(sim::Packet& pkt, SimTime now) final {
    (void)now;
    if (mark_point_ == MarkPoint::kDequeue && pkt.ect &&
        occupancy(unit_) >= k_) {
      pkt.ce = true;
      count_mark();
    }
  }

 private:
  double k_;
  ThresholdUnit unit_;
  MarkPoint mark_point_;
};

}  // namespace dtdctcp::queue
