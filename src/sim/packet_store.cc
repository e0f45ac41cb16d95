#include "sim/packet_store.h"

namespace dtdctcp::sim {

PacketStore::Handle PacketStore::fresh_slot() {
  if ((slot_count_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
  }
  return slot_count_++;
}

void StoreBinding::make_own() {
  own_ = std::make_unique<PacketStore>();
  store_ = own_.get();
}

}  // namespace dtdctcp::sim
