// Shared FIFO machinery for all queue disciplines.
//
// Concrete disciplines override the admission hook (to ECN-mark) and the
// occupancy hook (to run marking state machines). Thresholds can be
// expressed in packets (the paper's simulations: K = 40 packets) or in
// bytes (the paper's testbed: K = 32 KB), selected by ThresholdUnit.
//
// Queued packets live in a sim::PacketStore (sim/packet_store.h): the
// simulator's, once a port binds the queue, else one of the queue's
// own. The queue itself keeps a power-of-two ring (util/ring_buffer.h)
// of 32-bit handles into the store, growing only when a new occupancy
// high-water mark is reached; the steady-state enqueue/dequeue cycle
// touches no allocator and one store slot per call.
//
// Shared-memory switches: a queue optionally charges its bytes against
// a sim::SharedBufferPool (dynamic-threshold admission; see
// sim/shared_buffer.h). The pool reservation happens before the
// discipline's own admission hook, so a pool-rejected packet is never
// ECN-marked and the mark counters stay consistent with admitted
// traffic. Marking disciplines can additionally read the *shared*
// occupancy instead of (or joined with) the per-port depth via
// set_ecn_source, expressing DCTCP/DT-DCTCP thresholds against the
// pool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "queue/aqm_config.h"
#include "sim/packet_store.h"
#include "sim/queue_disc.h"
#include "sim/shared_buffer.h"
#include "util/ring_buffer.h"

namespace dtdctcp::queue {

/// What occupancy a marking discipline's threshold compares against.
enum class EcnOccupancySource {
  kPortQueue,   ///< this queue's own depth (the default)
  kSharedPool,  ///< the shared pool's total occupancy
  kMaxOfBoth,   ///< max(port, pool): marks on either congestion signal
};

class FifoBase : public sim::QueueDisc, public sim::SharedBufferClient {
 public:
  /// `limit_bytes` / `limit_packets`: buffer capacity; 0 means unlimited
  /// in that unit. A packet is dropped when admitting it would exceed
  /// either configured limit.
  FifoBase(std::size_t limit_bytes, std::size_t limit_packets)
      : limit_bytes_(limit_bytes), limit_packets_(limit_packets) {}

  ~FifoBase() override {
    // Return any still-buffered bytes to the pool (network teardown
    // with packets queued). Clamped: a deliberately corrupted run
    // (occupancy-leak fault injection) may have drifted bytes_ past the
    // pool's records.
    if (pool_ != nullptr && bytes_ > 0) {
      pool_->release(port_, std::min(bytes_, pool_->port_used(port_)));
    }
  }

  std::size_t packets() const final { return q_.size(); }
  std::size_t bytes() const final { return bytes_; }

  void bind_store(sim::PacketStore& store) override { store_.bind(store); }

  /// Charges this queue's occupancy against a switch-wide shared memory
  /// pool (see sim/shared_buffer.h), registering a port with the given
  /// DT share. Set before any traffic; the pool must outlive the queue.
  void set_shared_pool(sim::SharedBufferPool* pool,
                       sim::PortShare share = {}) {
    pool_ = pool;
    if (pool_ != nullptr) port_ = pool_->add_port(share);
  }

  sim::SharedBufferPool* shared_pool() const override { return pool_; }
  std::size_t pool_port() const override { return port_; }

  /// Selects what occupancy() reports to the marking discipline. For
  /// kPackets thresholds the pool's byte count is converted at
  /// `pool_packet_bytes` per packet. No-op without a pool.
  void set_ecn_source(EcnOccupancySource src,
                      double pool_packet_bytes = 1500.0) {
    ecn_source_ = src;
    pool_packet_bytes_ = pool_packet_bytes;
  }
  EcnOccupancySource ecn_source() const { return ecn_source_; }

  /// Hybrid fluid coupling: adds `*extra_pkts` (a live gauge owned by a
  /// hybrid::FluidBackground aggregate, in MTU packets) to every
  /// occupancy() the marking discipline reads, so foreground packets
  /// are marked against the total (packet + fluid) backlog. For byte
  /// thresholds the gauge is scaled by `packet_bytes`. nullptr
  /// detaches. When the gauge reads +0.0 the addition is bit-exact, so
  /// a zero-share aggregate leaves marking byte-identical.
  void set_fluid_occupancy(const double* extra_pkts,
                           double packet_bytes = 1500.0) {
    fluid_pkts_ = extra_pkts;
    fluid_packet_bytes_ = packet_bytes;
  }
  const double* fluid_occupancy() const { return fluid_pkts_; }
  double fluid_packet_bytes() const { return fluid_packet_bytes_; }

  std::size_t limit_bytes() const { return limit_bytes_; }
  std::size_t limit_packets() const { return limit_packets_; }

 protected:
  sim::EnqueueResult do_enqueue(sim::Packet& pkt, SimTime now) final {
    if (would_overflow(pkt)) {
      if (!DTDCTCP_CHECK_INJECT(kUncountedDrop)) count_drop();
      return sim::EnqueueResult::kDropped;
    }
    if (pool_ != nullptr && !pool_->try_reserve(port_, pkt.size_bytes)) {
      // Shared switch memory: the DT policy rejected this port's claim
      // (pool exhausted, or the port is over its dynamic threshold).
      if (DTDCTCP_CHECK_INJECT(kPoolOverAdmit)) {
        pool_->force_reserve(port_, pkt.size_bytes);
      } else {
        count_drop();
        return sim::EnqueueResult::kDropped;
      }
    }
    if (!before_admit(pkt, now)) {  // early drop (RED in drop mode)
      if (pool_ != nullptr) pool_->release(port_, pkt.size_bytes);
      count_drop();
      return sim::EnqueueResult::kDropped;
    }
    const auto [handle, stored] = store_.for_put().put(pkt);
    q_.push_back(handle);
    bytes_ += pkt.size_bytes;
    if (DTDCTCP_CHECK_INJECT(kOccupancyLeak)) bytes_ += 1;
    on_occupancy_change(now, /*grew=*/true);
    // The marking state machine may decide the packet (now at the tail)
    // should carry CE; let the discipline finalize it.
    after_admit(stored, now);
    if (pkt.ect && !stored.ce && DTDCTCP_CHECK_INJECT(kSpuriousMark)) {
      stored.ce = true;
    }
    pkt.ce = stored.ce;  // keep caller's view consistent (unused by port)
    notify(now, q_.size(), bytes_);
    return sim::EnqueueResult::kEnqueued;
  }

  bool do_dequeue(sim::Packet& out, SimTime now) final {
    if (q_.empty()) return false;
    if (q_.size() >= 2 && DTDCTCP_CHECK_INJECT(kFifoSwap)) {
      std::swap(q_[0], q_[1]);
    }
    store_.held().take(q_.front(), out);
    q_.pop_front();
    bytes_ -= out.size_bytes;
    if (pool_ != nullptr && !DTDCTCP_CHECK_INJECT(kPoolLeak)) {
      pool_->release(port_, out.size_bytes);
    }
    on_occupancy_change(now, /*grew=*/false);
    after_dequeue(out, now);  // may mark (dequeue-marking disciplines)
    notify(now, q_.size(), bytes_);
    return true;
  }

  /// Called with the packet before it joins the queue; occupancy
  /// accessors still exclude it. May mark the packet (set pkt.ce).
  /// Returning false drops the packet (probabilistic early drop);
  /// the base class counts the drop.
  virtual bool before_admit(sim::Packet& pkt, SimTime now) {
    (void)pkt;
    (void)now;
    return true;
  }

  /// Called after the packet joined (occupancy includes it); may mark it.
  virtual void after_admit(sim::Packet& pkt, SimTime now) {
    (void)pkt;
    (void)now;
  }

  /// Called with the departing head-of-line packet after occupancy was
  /// reduced; may mark it (dequeue-marking disciplines see the queue
  /// state at departure time, one queueing delay fresher than arrival
  /// marking).
  virtual void after_dequeue(sim::Packet& pkt, SimTime now) {
    (void)pkt;
    (void)now;
  }

  /// Called after every occupancy change (enqueue grew, dequeue shrank).
  virtual void on_occupancy_change(SimTime now, bool grew) {
    (void)now;
    (void)grew;
  }

  /// Current occupancy in the given unit, drawn from the configured ECN
  /// source. With a pool-coupled source the arriving packet's own pool
  /// charge is already visible (the reservation precedes admission).
  double occupancy(ThresholdUnit unit) const {
    const double port_q = unit == ThresholdUnit::kPackets
                              ? static_cast<double>(q_.size())
                              : static_cast<double>(bytes_);
    double base = port_q;
    if (ecn_source_ != EcnOccupancySource::kPortQueue && pool_ != nullptr) {
      const double pool_bytes = static_cast<double>(pool_->used());
      const double pool_q = unit == ThresholdUnit::kPackets
                                ? pool_bytes / pool_packet_bytes_
                                : pool_bytes;
      base = ecn_source_ == EcnOccupancySource::kSharedPool
                 ? pool_q
                 : std::max(port_q, pool_q);
    }
    if (fluid_pkts_ != nullptr) {
      base += unit == ThresholdUnit::kPackets
                  ? *fluid_pkts_
                  : *fluid_pkts_ * fluid_packet_bytes_;
    }
    return base;
  }

 private:
  bool would_overflow(const sim::Packet& pkt) const {
    if (limit_bytes_ != 0 && bytes_ + pkt.size_bytes > limit_bytes_) return true;
    if (limit_packets_ != 0 && q_.size() + 1 > limit_packets_) return true;
    return false;
  }

  std::size_t limit_bytes_;
  std::size_t limit_packets_;
  sim::SharedBufferPool* pool_ = nullptr;
  std::size_t port_ = 0;
  EcnOccupancySource ecn_source_ = EcnOccupancySource::kPortQueue;
  double pool_packet_bytes_ = 1500.0;
  const double* fluid_pkts_ = nullptr;
  double fluid_packet_bytes_ = 1500.0;
  sim::StoreBinding store_;
  util::RingBuffer<sim::PacketStore::Handle> q_;
  std::size_t bytes_ = 0;
};

}  // namespace dtdctcp::queue
