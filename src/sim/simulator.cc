#include "sim/simulator.h"

#include <limits>

#include "sim/node.h"

namespace dtdctcp::sim {

Simulator::~Simulator() {
  // Slots are placement-constructed into raw chunk storage; destroy the
  // ones that were ever handed out (free-listed slots hold an empty
  // closure, queued ones destroy their pending payload here).
  for (std::uint32_t id = 0; id < slot_count_; ++id) slot_ref(id).~Slot();
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != TimerHandle::kInvalid) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_ref(slot).pos;
    return slot;
  }
  if ((slot_count_ & kChunkMask) == 0) {
    chunks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kChunkSize * sizeof(Slot)));
  }
  const std::uint32_t slot = slot_count_++;
  ::new (static_cast<void*>(&slot_ref(slot))) Slot();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.fn.reset();
  ++s.gen;  // stale handles to this slot stop matching
  s.pos = free_head_;
  free_head_ = slot;
}

void Simulator::deliver_at(SimTime t, Node* peer, Packet pkt) {
  auto deliver = [peer, pkt] { peer->receive(pkt); };
  static_assert(EventClosure::kFitsInline<decltype(deliver)>,
                "a packet delivery must not allocate");
  at(t, std::move(deliver));
}

void Simulator::sift_up(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    place(heap_[parent], pos);
    pos = parent;
  }
  place(e, pos);
}

void Simulator::sift_down(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t last = first + 4 < n ? first + 4 : n;
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(heap_[best], pos);
    pos = best;
  }
  place(e, pos);
}

void Simulator::remove_at(std::uint32_t pos) {
  const HeapEntry back = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  place(back, pos);
  if (pos > 0 && earlier(back, heap_[(pos - 1) >> 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

bool Simulator::cancel(TimerHandle& h) {
  const std::uint32_t slot = h.slot;
  const std::uint32_t gen = h.gen;
  h = TimerHandle{};
  if (slot == TimerHandle::kInvalid || slot >= slot_count_) return false;
  if (slot_ref(slot).gen != gen) return false;  // fired or already cancelled
  const std::uint32_t pos = slot_ref(slot).pos;
  release_slot(slot);
  remove_at(pos);
  ++cancelled_;
  return true;
}

// Runs one event. The entry is taken by value: in-entry payloads run
// straight out of the copy; arena payloads run *in place* — slot
// addresses are stable (chunked arena), so nothing is moved on the hot
// path. For arena events the generation is bumped before the handler
// runs (a handler cancelling its own, already-firing timer must be a
// no-op), but the slot only joins the free list afterwards, so events
// the handler schedules cannot reuse the storage of the payload that is
// still executing.
void Simulator::fire(HeapEntry e) {
  now_ = e.time;
  frontier_seq_ = e.seq;
  ++processed_;
  if (e.slot == kInlineSlot) {
    e.fn(e.payload);
    return;
  }
  const std::uint32_t slot = e.slot & ~kCancelBit;
  Slot& s = slot_ref(slot);
  ++s.gen;
  s.fn.invoke();
  s.fn.reset();
  s.pos = free_head_;
  free_head_ = slot;
}

inline bool Simulator::pick() {
  std::uint32_t src = kNoEvent;
  SimTime time = 0.0;
  std::uint32_t seq = 0;
  const auto consider = [&](SimTime t, std::uint32_t s, std::uint32_t from) {
    if (src == kNoEvent || t < time ||
        (t == time && static_cast<std::int32_t>(s - seq) < 0)) {
      src = from;
      time = t;
      seq = s;
    }
  };
  if (!heap_.empty()) consider(heap_.front().time, heap_.front().seq, kHeapTop);
  for (std::uint32_t i = 0; i < lane_count_; ++i) {
    if (lanes_[i].ring.empty()) continue;
    const LaneEntry& head = lanes_[i].ring.front();
    consider(head.time, head.seq, i);
  }
  next_src_ = src;
  next_time_ = time;
  return src != kNoEvent;
}

inline void Simulator::pop() {
  if (next_src_ < kLanes) {
    // A lane delivery does what fire() does. The entry leaves the ring
    // before the handler runs: the handler may append to the same lane
    // and grow its ring.
    util::RingBuffer<LaneEntry>& ring = lanes_[next_src_].ring;
    const LaneEntry e = ring.front();
    ring.pop_front();
    now_ = e.time;
    frontier_seq_ = e.seq;
    ++processed_;
    e.peer->receive(e.pkt);
    return;
  }
  const HeapEntry top = heap_.front();
  const HeapEntry back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(back, 0);
    sift_down(0);
  }
  fire(top);
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pick()) pop();
  end_run();
}

SimTime Simulator::next_event_time() {
  return pick() ? next_time_ : std::numeric_limits<SimTime>::infinity();
}

void Simulator::run_window(SimTime end) {
  stopped_ = false;
  while (!stopped_ && pick() && next_time_ < end) pop();
  end_run();
}

void Simulator::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_ && pick() && next_time_ <= t) pop();
  if (!stopped_ && now_ < t) now_ = t;
  end_run();
}

}  // namespace dtdctcp::sim
