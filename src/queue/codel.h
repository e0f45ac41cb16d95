// CoDel (Nichols & Jacobson, CACM 2012) — the modern sojourn-time AQM,
// included as a baseline for the queue-stability comparisons: where
// DCTCP regulates via instantaneous occupancy and DT-DCTCP via an
// occupancy hysteresis, CoDel regulates the time packets spend queued.
//
// Standard control law, evaluated at dequeue: once the sojourn time has
// exceeded `target` continuously for `interval`, the queue enters the
// dropping state and signals at instants spaced interval/sqrt(count).
// ECN-capable packets are marked instead of dropped (RFC 8289 §4.2.1);
// non-ECT packets are dropped and the next packet is examined. The
// default constants are scaled for datacenter RTTs (the WAN defaults
// are 5 ms / 100 ms).
//
// The admission timestamp each packet's sojourn is measured from is
// queue-local state, not a protocol field, so it rides next to the
// packet's store handle in this discipline's ring rather than inflating
// sim::Packet for every other queue in the network. The packets
// themselves live in a sim::PacketStore, as FifoBase's do.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "queue/aqm_config.h"
#include "sim/packet_store.h"
#include "sim/queue_disc.h"
#include "sim/shared_buffer.h"
#include "util/ring_buffer.h"

namespace dtdctcp::queue {

class CodelQueue final : public sim::QueueDisc, public sim::SharedBufferClient {
 public:
  CodelQueue(std::size_t limit_bytes, std::size_t limit_packets,
             CodelConfig cfg)
      : limit_bytes_(limit_bytes), limit_packets_(limit_packets), cfg_(cfg) {}

  ~CodelQueue() override {
    if (pool_ != nullptr && bytes_ > 0) {
      pool_->release(port_, std::min(bytes_, pool_->port_used(port_)));
    }
  }

  std::size_t packets() const override { return q_.size(); }
  std::size_t bytes() const override { return bytes_; }
  bool dropping_state() const { return dropping_; }

  void bind_store(sim::PacketStore& store) override { store_.bind(store); }

  /// Charges this queue's occupancy against a switch-wide shared memory
  /// pool, same contract as FifoBase::set_shared_pool.
  void set_shared_pool(sim::SharedBufferPool* pool,
                       sim::PortShare share = {}) {
    pool_ = pool;
    if (pool_ != nullptr) port_ = pool_->add_port(share);
  }
  sim::SharedBufferPool* shared_pool() const override { return pool_; }
  std::size_t pool_port() const override { return port_; }

 protected:
  sim::EnqueueResult do_enqueue(sim::Packet& pkt, SimTime now) override {
    if ((limit_bytes_ != 0 && bytes_ + pkt.size_bytes > limit_bytes_) ||
        (limit_packets_ != 0 && q_.size() + 1 > limit_packets_)) {
      count_drop();
      return sim::EnqueueResult::kDropped;
    }
    if (pool_ != nullptr && !pool_->try_reserve(port_, pkt.size_bytes)) {
      count_drop();
      return sim::EnqueueResult::kDropped;
    }
    q_.push_back(Queued{store_.for_put().put(pkt).handle, now});
    bytes_ += pkt.size_bytes;
    notify(now, q_.size(), bytes_);
    return sim::EnqueueResult::kEnqueued;
  }

  bool do_dequeue(sim::Packet& out, SimTime now) override {
    while (!q_.empty()) {
      const SimTime enq = q_.front().enqueue_ts;
      pop(out, now);
      const SimTime sojourn = now - enq;

      if (!dropping_) {
        if (should_signal(sojourn, now)) {
          dropping_ = true;
          // Restart the signalling schedule; reuse the recent count if
          // we were dropping not long ago (CoDel's hysteresis on count).
          count_ = (count_ > 2 && now - drop_next_ < 8.0 * cfg_.interval)
                       ? count_ - 2
                       : 1;
          drop_next_ = control_law(now);
          if (!signal(out, now)) continue;  // dropped: examine the next
        }
        return true;
      }

      // Dropping state.
      if (sojourn < cfg_.target || q_.empty()) {
        dropping_ = false;
        return true;
      }
      if (now >= drop_next_) {
        ++count_;
        drop_next_ = control_law(now);
        if (!signal(out, now)) continue;
      }
      return true;
    }
    first_above_ = 0.0;
    return false;
  }

 private:
  /// A queued packet's store handle plus the admission time its sojourn
  /// is measured from (CoDel-local; see the header comment).
  struct Queued {
    sim::PacketStore::Handle handle;
    SimTime enqueue_ts;
  };

  void pop(sim::Packet& out, SimTime now) {
    store_.held().take(q_.front().handle, out);
    q_.pop_front();
    bytes_ -= out.size_bytes;
    if (pool_ != nullptr) pool_->release(port_, out.size_bytes);
    notify(now, q_.size(), bytes_);
  }

  /// True once sojourn has stayed above target for a full interval.
  bool should_signal(SimTime sojourn, SimTime now) {
    if (sojourn < cfg_.target) {
      first_above_ = 0.0;
      return false;
    }
    if (first_above_ == 0.0) {
      first_above_ = now + cfg_.interval;
      return false;
    }
    return now >= first_above_;
  }

  SimTime control_law(SimTime now) const {
    return now + cfg_.interval / std::sqrt(static_cast<double>(count_));
  }

  /// Marks ECT packets (returns true: deliver it); drops non-ECT
  /// (returns false: caller moves on to the next packet).
  bool signal(sim::Packet& pkt, SimTime now) {
    if (pkt.ect) {
      pkt.ce = true;
      count_mark();
      return true;
    }
    // Admitted earlier but never delivered: conservation accounting
    // must see this as an internal discard, not an admission reject.
    discard(pkt, now);
    return false;
  }

  std::size_t limit_bytes_;
  std::size_t limit_packets_;
  CodelConfig cfg_;
  sim::SharedBufferPool* pool_ = nullptr;
  std::size_t port_ = 0;
  sim::StoreBinding store_;
  util::RingBuffer<Queued> q_;
  std::size_t bytes_ = 0;

  // Control-law state.
  SimTime first_above_ = 0.0;
  bool dropping_ = false;
  SimTime drop_next_ = 0.0;
  std::uint32_t count_ = 0;
};

}  // namespace dtdctcp::queue
