// Egress port: queue discipline + transmitter + point-to-point link.
//
// Model: a packet offered to a port is transmitted immediately when the
// transmitter is idle and the queue empty (the discipline still gets to
// observe/mark it via on_bypass); otherwise it is offered to the queue
// discipline, which may drop or ECN-mark it. Serialization takes
// size*8/rate seconds; the packet then propagates for `delay` seconds and
// is delivered to the peer node. The pipe holds arbitrarily many packets
// in flight (independent arrival events), like a real wire.
//
// The transmitter release is lazy. A transmission records when it ends
// (`busy_until`) and reserves the kernel seq its release event would
// take, but queues that event only once a packet waits behind the
// transmitter; a release that would find the queue empty never runs.
// Because the reserved seq keeps the release's place in the kernel's
// (time, seq) order, every other event pops exactly as if each release
// ran, and a packet arriving at `busy_until` sees the port busy exactly
// when its event orders before the release. The skipped release's one
// effect, an empty dequeue (CoDel and WRR change state on it), is
// replayed at `busy_until` before the port next touches the discipline.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/counters.h"
#include "sim/node.h"
#include "sim/packet.h"
#include "sim/queue_disc.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace dtdctcp::parsim {
class Mailbox;
}  // namespace dtdctcp::parsim

namespace dtdctcp::sim {

class Port {
 public:
  /// `disc` must be empty; its packets will live in `sim`'s store.
  Port(Simulator& sim, DataRate rate_bps, SimTime prop_delay,
       std::unique_ptr<QueueDisc> disc)
      : rate_bps_(rate_bps), prop_delay_(prop_delay), disc_(std::move(disc)) {
    bind_simulator(sim);
  }

  /// Sets the node packets are delivered to after propagation.
  void attach_peer(Node* peer) { peer_ = peer; }

  Node* peer() const { return peer_; }

  /// Rebinds the port, and its discipline's packet store, to another
  /// simulator. Used by the parsim partitioner, which builds the
  /// topology against the network's serial simulator and then moves each
  /// port onto its owning shard's simulator. Throws std::logic_error
  /// while the discipline holds packets or a transmitter release is
  /// pending: the release would stay on the old kernel and the packets'
  /// handles in the old store.
  void bind_simulator(Simulator& sim);
  Simulator& simulator() { return *sim_; }

  /// Marks this port's link as crossing a shard boundary: transmitted
  /// packets are pushed into `mb` (timestamped with their arrival time
  /// at the peer) instead of being scheduled locally. nullptr restores
  /// direct local delivery.
  void set_remote(parsim::Mailbox* mb) { remote_ = mb; }
  parsim::Mailbox* remote() const { return remote_; }

  /// Offers a packet for transmission (drops silently if the discipline
  /// rejects it).
  void send(Packet pkt);

  /// Discards every queued packet — the link went down ("interface
  /// disabled" semantics: the backlog is lost, while packets already
  /// serialized onto the wire still deliver). Each packet is dequeued
  /// through the discipline, so marking/occupancy/shared-pool accounting
  /// run exactly as for a transmission, and is then dropped instead of
  /// serialized (counted in `link_down_drops`, reported to the checker
  /// via the packet_lost hook so the conservation ledger closes).
  /// Returns the number of packets discarded.
  std::size_t drop_queued(SimTime now);

  /// Packets lost to drop_queued() (link-failure backlog discards).
  std::uint64_t link_down_drops() const { return link_down_drops_; }

  /// Hybrid fluid coupling: scales the effective serialization rate by
  /// `*frac` (a live gauge in (0, 1] owned by a hybrid::FluidBackground
  /// aggregate), modelling the link capacity the fluid background
  /// claims. nullptr (the default) or a gauge reading exactly 1.0
  /// leaves transmission timing bit-identical (rate * 1.0 == rate).
  void set_available_rate_fraction(const double* frac) { avail_frac_ = frac; }
  const double* available_rate_fraction() const { return avail_frac_; }

  QueueDisc& disc() { return *disc_; }
  const QueueDisc& disc() const { return *disc_; }
  DataRate rate_bps() const { return rate_bps_; }
  SimTime prop_delay() const { return prop_delay_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Queue-side totals from the discipline plus this port's link-side
  /// transmission totals.
  Counters counters() const {
    Counters c = disc_->counters();
    c.sent_packets = packets_sent_;
    c.sent_bytes = bytes_sent_;
    return c;
  }

 private:
  /// Transmitter state. kDeferred: busy until busy_until_ with the
  /// release seq reserved but no event queued (the queue was empty).
  enum class Release : std::uint8_t { kNone, kScheduled, kDeferred };

  void begin_transmission(Packet pkt);
  void on_transmit_complete();
  void schedule_release();
  /// Retires a deferred release the kernel has passed, replaying the
  /// empty dequeue it would have made at busy_until_.
  void settle_release();

  Simulator* sim_ = nullptr;
  DataRate rate_bps_;
  SimTime prop_delay_;
  std::unique_ptr<QueueDisc> disc_;
  parsim::Mailbox* remote_ = nullptr;
  Node* peer_ = nullptr;
  const double* avail_frac_ = nullptr;
  Release release_ = Release::kNone;
  SimTime busy_until_ = 0.0;
  ReservedSeq release_seq_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t link_down_drops_ = 0;
};

}  // namespace dtdctcp::sim
