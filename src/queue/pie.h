// PIE — Proportional Integral controller Enhanced (RFC 8033), the other
// standard latency-based AQM. The marking probability is driven by a PI
// controller on the estimated queueing delay:
//
//   p += alpha * (delay - target) + beta * (delay - delay_old)
//
// evaluated every `update_interval` (lazily, on the next enqueue, so no
// timer plumbing is needed). ECT packets are marked, non-ECT dropped,
// with Bernoulli probability p. Defaults scaled for datacenter RTTs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "queue/aqm_config.h"
#include "queue/fifo_base.h"
#include "util/rng.h"

namespace dtdctcp::queue {

class PieQueue final : public FifoBase {
 public:
  PieQueue(std::size_t limit_bytes, std::size_t limit_packets, PieConfig cfg,
           DataRate drain_rate_bps)
      : FifoBase(limit_bytes, limit_packets), cfg_(cfg),
        drain_rate_bps_(drain_rate_bps), rng_(cfg.seed) {}

  double probability() const { return p_; }
  SimTime estimated_delay() const { return last_delay_; }

 protected:
  bool before_admit(sim::Packet& pkt, SimTime now) final {
    maybe_update(now);
    if (p_ <= 0.0) return true;
    if (!rng_.bernoulli(std::min(p_, 1.0))) return true;
    if (pkt.ect) {
      pkt.ce = true;
      count_mark();
      return true;
    }
    return false;  // early drop
  }

  void do_bypass(sim::Packet& pkt, SimTime now) final {
    // PIE's probability applies to every arrival, including one that
    // finds the transmitter idle (the controller's p decays slowly, so
    // skipping bypass packets would under-signal at light load).
    maybe_update(now);
    if (p_ > 0.0 && pkt.ect && rng_.bernoulli(std::min(p_, 1.0))) {
      pkt.ce = true;
      count_mark();
    }
  }

 private:
  void maybe_update(SimTime now) {
    if (now < next_update_) return;
    // A drain rate of zero gives no delay estimate at all; hold p_
    // rather than divide by zero (the controller has nothing to react
    // to on a link that never drains).
    if (drain_rate_bps_ <= 0.0) {
      next_update_ = now + cfg_.update_interval;
      return;
    }
    // Queue delay estimated from backlog over the known drain rate
    // (RFC 8033's departure-rate estimator reduces to this for a fixed
    // line rate).
    const double delay =
        static_cast<double>(bytes()) * 8.0 / drain_rate_bps_;
    // The controller is clocked lazily by arrivals, so an idle gap may
    // span many update intervals; run one PI step per elapsed interval
    // (bounded) so p_ keeps integrating/decaying across the gap exactly
    // as a timer-driven implementation would.
    const std::uint64_t steps =
        1 + static_cast<std::uint64_t>((now - next_update_) /
                                       cfg_.update_interval);
    next_update_ = now + cfg_.update_interval;
    std::uint64_t ran = 0;
    for (; ran < steps && ran < kMaxCatchupSteps; ++ran) {
      p_ += cfg_.alpha * (delay - cfg_.target_delay) +
            cfg_.beta * (delay - last_delay_);
      p_ = std::clamp(p_, 0.0, 1.0);
      last_delay_ = delay;
      // Saturated in the direction the error pushes: further identical
      // steps are no-ops.
      if (p_ == 0.0 && delay <= cfg_.target_delay) return;
      if (p_ == 1.0 && delay >= cfg_.target_delay) return;
    }
    if (ran < steps) {
      // Tail of a very long gap: last_delay_ == delay by now, so every
      // remaining step adds the same increment — apply it in closed
      // form instead of iterating millions of times.
      const double delta = cfg_.alpha * (delay - cfg_.target_delay);
      p_ = std::clamp(
          p_ + static_cast<double>(steps - ran) * delta, 0.0, 1.0);
    }
  }

  /// Per-step catch-up bound for idle gaps; the remainder of a longer
  /// gap is applied in closed form (constant per-step increment once
  /// last_delay_ has settled).
  static constexpr std::uint64_t kMaxCatchupSteps = 4096;

  PieConfig cfg_;
  DataRate drain_rate_bps_;
  Rng rng_;
  double p_ = 0.0;
  double last_delay_ = 0.0;
  SimTime next_update_ = 0.0;
};

}  // namespace dtdctcp::queue
