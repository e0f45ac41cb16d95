// Node interface: anything that can terminate a link.
#pragma once

#include <cstddef>
#include <string>

#include "sim/packet.h"

namespace dtdctcp::sim {

/// `prefix` followed by `n` in decimal, for numbered node names. It
/// appends: GCC 12 misreports `"h" + std::to_string(n)`, which inserts
/// at the front of the temporary, under -Wrestrict in optimised builds.
inline std::string numbered(std::string prefix, std::size_t n) {
  prefix += std::to_string(n);
  return prefix;
}

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Delivers a packet that finished propagating over an attached link.
  virtual void receive(Packet pkt) = 0;

 private:
  NodeId id_;
  std::string name_;
};

}  // namespace dtdctcp::sim
