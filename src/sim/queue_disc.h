// Abstract queueing discipline attached to an egress port.
//
// The interface lives in sim/ (concrete disciplines live in queue/) so
// that the port machinery does not depend on any particular AQM.
#pragma once

#include <cstddef>

#include "check/hook.h"
#include "sim/counters.h"
#include "sim/packet.h"

namespace dtdctcp::sim {

class PacketStore;

enum class EnqueueResult { kEnqueued, kDropped };

/// Receives every occupancy change of a queue discipline (enqueues grew
/// it, dequeues shrank it). A plain interface rather than a
/// std::function so the per-packet notification is one predictable
/// virtual call through a pointer the disc holds directly — no
/// type-erased storage, no capture allocation.
class QueueObserver {
 public:
  virtual ~QueueObserver() = default;
  virtual void on_queue_change(SimTime now, std::size_t pkts,
                               std::size_t bytes) = 0;
};

/// FIFO buffer with a pluggable admission/marking policy.
///
/// Disciplines may mutate the packet on admission (ECN marking). The
/// port calls `enqueue` for every packet that finds the transmitter busy
/// and `dequeue` when the transmitter frees up; packets that arrive at an
/// idle empty port bypass the queue (standard output-queued switch
/// behaviour) after being offered to `on_bypass`.
///
/// The public entry points are non-virtual wrappers (template method):
/// they maintain the exact per-discipline counters and fire the
/// invariant-check hooks, then delegate to the `do_*` virtuals that
/// concrete disciplines implement. Disciplines that drop an admitted
/// packet later (CoDel discarding non-ECT packets at dequeue time) must
/// route the discard through `discard()` so conservation accounting sees
/// it.
class QueueDisc {
 public:
  virtual ~QueueDisc() { DTDCTCP_CHECK_HOOK(queue_destroyed(this)); }

  /// Attempts to admit the packet; may set pkt.ce. Returns kDropped when
  /// the buffer is full (the packet is discarded).
  EnqueueResult enqueue(Packet& pkt, SimTime now) {
    ++offered_;
    DTDCTCP_CHECK_HOOK(queue_offered(this, pkt, now));
    const EnqueueResult r = do_enqueue(pkt, now);
    if (r == EnqueueResult::kEnqueued) {
      ++enqueued_;
      DTDCTCP_CHECK_HOOK(queue_enqueued(this, pkt, now));
    } else {
      DTDCTCP_CHECK_HOOK(queue_rejected(this, pkt, now));
    }
    return r;
  }

  /// Moves the head-of-line packet into `out`; returns false (leaving
  /// `out` untouched) when the queue is empty. The move-out signature
  /// means a dequeued packet is copied exactly once, from the buffer
  /// into the caller's slot.
  bool dequeue(Packet& out, SimTime now) {
    if (!do_dequeue(out, now)) return false;
    ++dequeued_;
    DTDCTCP_CHECK_HOOK(queue_dequeued(this, out, now));
    return true;
  }

  /// Lets the discipline observe (and possibly mark) a packet that goes
  /// straight to the wire with an empty queue.
  void on_bypass(Packet& pkt, SimTime now) {
    ++offered_;
    ++bypassed_;
    [[maybe_unused]] const bool ce_before = pkt.ce;
    do_bypass(pkt, now);
    DTDCTCP_CHECK_HOOK(queue_bypassed(this, pkt, ce_before, now));
  }

  virtual std::size_t packets() const = 0;
  virtual std::size_t bytes() const = 0;

  /// Keeps queued packets in `store` (sim/packet_store.h), which must
  /// outlive the discipline's traffic. Port binds its simulator's store
  /// while the discipline is empty. Default: no-op, for disciplines
  /// that buffer nothing themselves; a buffering discipline no port has
  /// bound keeps a store of its own.
  virtual void bind_store(PacketStore& store) { (void)store; }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t marks() const { return marks_; }

  /// Exact event totals for this discipline (see sim/counters.h).
  /// Virtual so aggregates (queue::MultiQueueDisc) can report the sum
  /// of their per-class children instead of their own wrapper counts.
  virtual Counters counters() const {
    Counters c;
    c.offered = offered_;
    c.enqueued = enqueued_;
    c.dequeued = dequeued_;
    c.bypassed = bypassed_;
    c.dropped = drops_;
    c.marked = marks_;
    return c;
  }

  /// Invoked after every occupancy change with (time, packets, bytes);
  /// used by queue monitors. At most one observer per disc; null
  /// detaches. The observer must outlive the discipline's activity.
  void set_observer(QueueObserver* observer) { observer_ = observer; }

 protected:
  /// Admission decision; may mark the packet. kDropped discards it.
  virtual EnqueueResult do_enqueue(Packet& pkt, SimTime now) = 0;

  /// Head-of-line removal into `out`; false when empty.
  virtual bool do_dequeue(Packet& out, SimTime now) = 0;

  /// Observe/mark a packet bypassing the (empty) queue. Default: no-op.
  virtual void do_bypass(Packet& pkt, SimTime now) { (void)pkt; (void)now; }

  void count_drop() { ++drops_; }
  void count_mark() { ++marks_; }

  /// Accounts a packet the discipline removed and dropped after it had
  /// been admitted (never returned from dequeue). Counts the drop.
  void discard([[maybe_unused]] const Packet& pkt,
               [[maybe_unused]] SimTime now) {
    count_drop();
    DTDCTCP_CHECK_HOOK(queue_discarded(this, pkt, now));
  }

  void notify(SimTime now, std::size_t pkts, std::size_t bytes) {
    if (observer_ != nullptr) observer_->on_queue_change(now, pkts, bytes);
  }

 private:
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dequeued_ = 0;
  std::uint64_t bypassed_ = 0;
  QueueObserver* observer_ = nullptr;
};

}  // namespace dtdctcp::sim
