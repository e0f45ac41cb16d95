// End host: one NIC port plus per-flow packet handlers (TCP agents).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/hook.h"
#include "sim/node.h"
#include "sim/port.h"

namespace dtdctcp::sim {

/// Implemented by protocol agents (TCP senders/receivers) to accept
/// packets demultiplexed by flow id.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(Packet pkt) = 0;
};

/// Flow id -> sink map behind Host's demux: open addressing over a
/// power-of-two table, Fibonacci hashing and linear probing, kept at
/// most half full. Erase shifts the rest of the probe run back instead
/// of leaving a tombstone, so bind/unbind churn never lengthens probes.
class FlowTable {
 public:
  /// Binds `flow` to `sink`, replacing any earlier binding; a null
  /// `sink` unbinds the flow.
  void insert(FlowId flow, PacketSink* sink) {
    if (sink == nullptr) return erase(flow);
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(flow);; i = next(i)) {
      Slot& slot = slots_[i];
      if (slot.sink == nullptr) {
        slot = {flow, sink};
        ++size_;
        return;
      }
      if (slot.flow == flow) {
        slot.sink = sink;
        return;
      }
    }
  }

  /// Removes `flow`'s binding, if any.
  void erase(FlowId flow) {
    if (slots_.empty()) return;
    std::size_t hole = home(flow);
    while (slots_[hole].sink != nullptr && slots_[hole].flow != flow) {
      hole = next(hole);
    }
    if (slots_[hole].sink == nullptr) return;
    // Move each later entry of the run whose home is not in
    // (hole, j] into the hole, so every entry stays reachable.
    for (std::size_t j = next(hole); slots_[j].sink != nullptr; j = next(j)) {
      const std::size_t mask = slots_.size() - 1;
      if (((j - home(slots_[j].flow)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// The sink bound to `flow`, or nullptr.
  PacketSink* find(FlowId flow) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(flow);; i = next(i)) {
      const Slot& slot = slots_[i];
      if (slot.sink == nullptr || slot.flow == flow) return slot.sink;
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    FlowId flow = 0;
    PacketSink* sink = nullptr;  ///< nullptr marks an empty slot
  };

  std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(flow) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.sink != nullptr) insert(slot.flow, slot.sink);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

class Host final : public Node {
 public:
  Host(NodeId id, std::string name) : Node(id, std::move(name)) {}

  /// Installs the NIC (egress port toward the first-hop switch).
  void set_uplink(std::unique_ptr<Port> port) { uplink_ = std::move(port); }

  Port& uplink() { return *uplink_; }
  bool has_uplink() const { return uplink_ != nullptr; }

  /// Registers the handler for a flow; the handler must outlive the host
  /// or be unbound first.
  void bind_flow(FlowId flow, PacketSink* sink) { sinks_.insert(flow, sink); }
  void unbind_flow(FlowId flow) { sinks_.erase(flow); }

  /// Transmits a packet out of the NIC.
  void send(Packet pkt) {
    DTDCTCP_CHECK_HOOK(packet_injected(this, pkt));
    uplink_->send(std::move(pkt));
  }

  /// Delivers to the flow's registered sink; packets for unknown flows
  /// are counted and dropped.
  void receive(Packet pkt) override {
    if (DTDCTCP_CHECK_INJECT(kLostDelivery)) return;
    PacketSink* sink = sinks_.find(pkt.flow);
    if (sink == nullptr) {
      ++unbound_drops_;
      DTDCTCP_CHECK_HOOK(packet_unbound(this, pkt));
      return;
    }
    DTDCTCP_CHECK_HOOK(packet_delivered(this, pkt));
    sink->deliver(std::move(pkt));
  }

  std::uint64_t unbound_drops() const { return unbound_drops_; }

  /// NIC-side totals plus host-level drop classes.
  Counters counters() const {
    Counters c;
    if (uplink_ != nullptr) c = uplink_->counters();
    c.unbound_dropped = unbound_drops_;
    return c;
  }

 private:
  std::unique_ptr<Port> uplink_;
  FlowTable sinks_;
  std::uint64_t unbound_drops_ = 0;
};

}  // namespace dtdctcp::sim
