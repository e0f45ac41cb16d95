// Random Early Detection (classic AQM baseline).
//
// Included as the conventional AQM the DCTCP line of work departs from:
// RED marks on an EWMA of queue length with a probability ramp, whereas
// DCTCP marks deterministically on the instantaneous queue. Used by the
// ablation benches to contrast marking styles.
#pragma once

#include <algorithm>
#include <cmath>

#include "queue/aqm_config.h"
#include "queue/fifo_base.h"
#include "util/rng.h"

namespace dtdctcp::queue {

class RedQueue final : public FifoBase {
 public:
  RedQueue(std::size_t limit_bytes, std::size_t limit_packets, RedConfig cfg)
      : FifoBase(limit_bytes, limit_packets), cfg_(cfg), rng_(cfg.seed) {}

  double average() const { return avg_; }

 protected:
  bool before_admit(sim::Packet& pkt, SimTime now) final {
    update_average(now);
    const double p = mark_probability();
    if (p <= 0.0) {
      ++since_last_;
      return true;
    }
    // Floyd's inter-mark spacing: uniformize the gap between marks.
    const double pb = std::min(1.0, p);
    const double pa =
        pb / std::max(1e-9, 1.0 - static_cast<double>(since_last_) * pb);
    if (rng_.bernoulli(std::clamp(pa, 0.0, 1.0))) {
      since_last_ = 0;
      if (cfg_.ecn_mode && pkt.ect) {
        pkt.ce = true;
        count_mark();
        return true;
      }
      return false;  // early drop: non-ECT traffic, or drop-mode RED
    }
    ++since_last_;
    return true;
  }

  void on_occupancy_change(SimTime now, bool grew) final {
    (void)grew;
    if (packets() == 0) idle_since_ = now;
  }

 private:
  void update_average(SimTime now) {
    double q = static_cast<double>(packets());
    if (q == 0.0 && idle_since_ >= 0.0) {
      // Decay the average over the idle period as if the queue had been
      // sampled empty (standard RED idle-time correction, coarse form).
      const double idle = now - idle_since_;
      const double samples = std::min(1e4, idle * 1e5);
      avg_ *= std::pow(1.0 - cfg_.weight, samples);
      idle_since_ = -1.0;
    }
    avg_ = (1.0 - cfg_.weight) * avg_ + cfg_.weight * q;
  }

  double mark_probability() const {
    if (avg_ < cfg_.min_th) return 0.0;
    if (avg_ < cfg_.max_th) {
      return cfg_.max_p * (avg_ - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
    }
    if (cfg_.gentle && avg_ < 2.0 * cfg_.max_th) {
      return cfg_.max_p +
             (1.0 - cfg_.max_p) * (avg_ - cfg_.max_th) / cfg_.max_th;
    }
    return 1.0;
  }

  RedConfig cfg_;
  Rng rng_;
  double avg_ = 0.0;
  std::uint64_t since_last_ = 0;
  SimTime idle_since_ = -1.0;
};

}  // namespace dtdctcp::queue
