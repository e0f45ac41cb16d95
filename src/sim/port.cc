#include "sim/port.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "check/hook.h"
#include "parsim/mailbox.h"

namespace dtdctcp::sim {

void Port::bind_simulator(Simulator& sim) {
  if (sim_ != nullptr) settle_release();
  if (release_ != Release::kNone || disc_->packets() != 0) {
    throw std::logic_error(
        "sim::Port::bind_simulator: the port has queued packets or a "
        "pending transmitter release");
  }
  sim_ = &sim;
  disc_->bind_store(sim.packet_store());
}

void Port::send(Packet pkt) {
  assert(peer_ != nullptr && "port not wired to a peer");
  settle_release();
  if (release_ == Release::kNone && disc_->packets() == 0) {
    disc_->on_bypass(pkt, sim_->now());
    begin_transmission(std::move(pkt));
    return;
  }
  if (disc_->enqueue(pkt, sim_->now()) != EnqueueResult::kEnqueued) return;
  if (release_ == Release::kDeferred) {
    // A packet now waits behind the transmitter: its release must run.
    schedule_release();
  } else if (release_ == Release::kNone) {
    // Transmitter idle but queue was non-empty (can happen transiently
    // when a drop callback re-enters send); drain in FIFO order.
    Packet head;
    const bool got = disc_->dequeue(head, sim_->now());
    assert(got);
    (void)got;
    begin_transmission(std::move(head));
  }
}

void Port::settle_release() {
  if (release_ != Release::kDeferred ||
      !sim_->passed(busy_until_, release_seq_)) {
    return;
  }
  release_ = Release::kNone;
  // Nothing touched the discipline since the transmission began on an
  // empty queue, so this is the release's own dequeue, at its own time:
  // it finds nothing, fires no hook and counts nothing, but leaves the
  // discipline's state as the release would have.
  Packet none;
  const bool got = disc_->dequeue(none, busy_until_);
  assert(!got);
  (void)got;
}

std::size_t Port::drop_queued(SimTime now) {
  settle_release();
  std::size_t n = 0;
  Packet pkt;
  while (disc_->dequeue(pkt, now)) {
    DTDCTCP_CHECK_HOOK(packet_lost(this, pkt));
    ++link_down_drops_;
    ++n;
  }
  return n;
}

void Port::begin_transmission(Packet pkt) {
  // With a fluid background sharing the link, foreground packets only
  // get the residual capacity (exactly rate_bps_ when the gauge is 1.0,
  // so a zero-share aggregate changes no timestamps).
  const DataRate rate =
      avail_frac_ == nullptr ? rate_bps_ : rate_bps_ * *avail_frac_;
  const SimTime tx = units::transmission_time(pkt.size_bytes, rate);
  ++packets_sent_;
  bytes_sent_ += pkt.size_bytes;
  // Arrival at the peer is an independent event so the pipe can hold
  // multiple packets; transmitter release is a separate, lazy event.
  // Neither allocates: the arrival joins the kernel's delay lane for
  // tx + prop (packet and all), and the release rides in a heap entry.
  //
  // A cross-shard link hands the arrival to the peer shard's mailbox
  // instead: the arrival timestamp is computed here with the local
  // path's arithmetic, now + (tx + prop), so shard placement cannot
  // change timing, and the consuming shard schedules it after the next
  // window barrier. The transmitter-release event is always local.
  if (remote_ == nullptr) {
    sim_->deliver_after(tx + prop_delay_, peer_, std::move(pkt));
  } else {
    DTDCTCP_CHECK_HOOK(packet_exported(this, pkt));
    remote_->push(sim_->now() + (tx + prop_delay_), peer_, std::move(pkt));
  }
  // The release takes its seq here, after the arrival, as an eagerly
  // scheduled release would; busy_until_ is the kernel's own now + dt.
  busy_until_ = sim_->now() + tx;
  release_seq_ = sim_->reserve_seq();
  if (disc_->packets() != 0) {
    schedule_release();
  } else {
    release_ = Release::kDeferred;
  }
}

void Port::schedule_release() {
  sim_->at_reserved(busy_until_, release_seq_,
                    [this] { on_transmit_complete(); });
  release_ = Release::kScheduled;
}

void Port::on_transmit_complete() {
  release_ = Release::kNone;
  Packet next;
  if (disc_->dequeue(next, sim_->now())) {
    begin_transmission(std::move(next));
  }
}

}  // namespace dtdctcp::sim
