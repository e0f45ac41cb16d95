// Packet store: where queued packets live.
//
// Each sim::Simulator owns one store, and every queue discipline its
// ports run keeps its buffered packets there (Port binds the discipline
// through QueueDisc::bind_store); a discipline's FIFO is a ring of
// 32-bit handles into the store. Queue memory therefore follows the
// simulator's peak *total* occupancy instead of the sum of every port's
// own high-water mark: a port that once held 200 packets keeps a ring
// of handles, not of packet slots, after it drains.
//
// The layout mirrors the kernel's event arena: chunks of 256 slots
// (16 KiB), allocated on demand and kept until the store dies, so slots
// have stable addresses and growth never moves a stored packet. A free
// list runs through the free slots; `put` and `take` each touch one
// slot. Under parsim every shard's simulator owns its store and only
// that shard's thread touches it, so there is no locking.
//
// A discipline no port has bound (unit tests, microbenchmarks, a
// discipline wrapped by another) keeps a store of its own, made on
// first use (StoreBinding). A discipline never touches its store in its
// destructor: a store may die before the ports whose packets it held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/packet.h"

namespace dtdctcp::sim {

class PacketStore {
 public:
  using Handle = std::uint32_t;

  /// A packet just stored: its handle and the stored copy.
  struct Placed {
    Handle handle;
    Packet& pkt;
  };

  PacketStore() = default;
  // Disciplines hold a pointer to their store.
  PacketStore(const PacketStore&) = delete;
  PacketStore& operator=(const PacketStore&) = delete;

  /// Copies `pkt` into a free slot.
  Placed put(const Packet& pkt) {
    Handle h = free_head_;
    if (h != kNoSlot) [[likely]] {
      free_head_ = slot(h).next_free;
    } else {
      h = fresh_slot();
    }
    ++live_;
    return {h, *::new (static_cast<void*>(&slot(h).pkt)) Packet(pkt)};
  }

  /// Moves the packet stored under `h` into `out` and frees its slot.
  void take(Handle h, Packet& out) {
    Slot& s = slot(h);
    out = s.pkt;
    s.next_free = free_head_;
    free_head_ = h;
    --live_;
  }

  /// Packets held.
  std::size_t size() const { return live_; }
  /// Slots allocated (a multiple of the chunk size).
  std::size_t capacity() const { return chunks_.size() * kChunkSize; }

  static constexpr std::uint32_t kChunkSize = 256;

 private:
  union Slot {
    Slot() {}  // written by put before it is read
    Packet pkt;
    Handle next_free;  ///< while free: the next free slot
  };
  static_assert(sizeof(Slot) == sizeof(Packet));
  // Plain new, not over-aligned: glibc's aligned allocations leave
  // remainders that fragment the heap, and a run that rebuilds its
  // network per input (hybrid) then peaks higher.
  struct Chunk {
    Slot slots[kChunkSize];
  };

  static constexpr Handle kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kChunkShift = 8;
  static_assert(kChunkSize == 1u << kChunkShift);
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  Slot& slot(Handle h) {
    return chunks_[h >> kChunkShift]->slots[h & kChunkMask];
  }
  /// A never-used slot, adding a chunk when the last one is full; out
  /// of line, since only a new occupancy peak takes this path.
  Handle fresh_slot();

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t slot_count_ = 0;  ///< slots ever handed out
  Handle free_head_ = kNoSlot;
  std::uint32_t live_ = 0;
};

/// A discipline's way to its store: the one a port bound, or else a
/// store of its own, made the first time a packet needs a slot.
class StoreBinding {
 public:
  /// Binds `store`. The discipline must hold no packets: their handles
  /// would point into the store they were put in.
  void bind(PacketStore& store) { store_ = &store; }

  /// The store to put a packet into.
  PacketStore& for_put() {
    if (store_ == nullptr) [[unlikely]] make_own();
    return *store_;
  }

  /// The store holding the discipline's packets (only while it holds
  /// some).
  PacketStore& held() const { return *store_; }

 private:
  void make_own();

  PacketStore* store_ = nullptr;
  std::unique_ptr<PacketStore> own_;
};

}  // namespace dtdctcp::sim
