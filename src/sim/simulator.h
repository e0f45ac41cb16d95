// Discrete-event simulation kernel.
//
// Events are ordered by (time, insertion-sequence): events at equal
// times run in the order they were scheduled, which keeps packet
// pipelines deterministic. Because that order is a *total* order, the
// kernel is free to organise its queue however it likes — every valid
// arrangement pops in exactly the same sequence. It exploits that
// freedom twice: packet deliveries (`deliver_after`) skip the 4-ary
// heap of 32-byte entries that holds every other event and join one
// FIFO *delay lane* per distinct delay, which is already in
// (time, seq) order (see Lane); and payloads live out-of-line in a
// chunked, recycled slot arena with stable addresses, so the
// steady-state hot path performs no heap allocation and payloads never
// move once placed. Timers scheduled through `timer_at` /
// `timer_after` return a generation-counted `TimerHandle` and can be
// cancelled in O(log n) — a cancelled timer is removed from the queue
// immediately instead of lingering until its fire time.
//
// A caller may also take a place in the (time, seq) order before it
// knows whether the event will be needed: `reserve_seq` hands out the
// seq the event would get if scheduled now, `passed` says whether an
// event at (t, reserved seq) would already have run, and an event
// scheduled later with that seq pops exactly where it would have
// popped had it been scheduled at reservation time. The port uses this
// to skip transmitter-release events that would find an empty queue
// (see port.h).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/packet.h"
#include "sim/packet_store.h"
#include "util/ring_buffer.h"
#include "util/units.h"

namespace dtdctcp::sim {

class Node;

/// A place in the kernel's (time, seq) event order taken out ahead of
/// scheduling (`Simulator::reserve_seq`). Opaque to its holders, so the
/// tie-break key can grow (a per-origin key, say) without touching them.
struct ReservedSeq {
  std::uint32_t seq = 0;
};

/// Identifies a pending cancellable timer. A handle is only a claim
/// ticket: after the timer fires (or is cancelled) the handle goes stale
/// and `Simulator::cancel` on it is a harmless no-op, so holders never
/// need to track liveness themselves.
struct TimerHandle {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t slot = kInvalid;
  std::uint32_t gen = 0;
};

/// Move-only type-erased `void()` closure with fixed inline storage.
///
/// The inline capture budget is pinned to a packet delivery: a `Node*`
/// plus a `Packet` by value must fit, so the deliveries that do not
/// ride in a delay lane (cross-shard arrivals, lane overflow) never
/// allocate. Larger captures fall back to the heap — acceptable for
/// setup/teardown closures, never for per-packet ones (hot call sites
/// static_assert `kFitsInline`).
class EventClosure {
 public:
  static constexpr std::size_t kInlineBytes = sizeof(void*) + sizeof(Packet);

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventClosure() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventClosure> &&
                                        std::is_invocable_v<D&>>>
  EventClosure(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  EventClosure(EventClosure&& other) noexcept { move_from(other); }
  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;
  ~EventClosure() { reset(); }

  /// Constructs a callable in place (the closure must be empty).
  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    assert(kind_ == Kind::kEmpty);
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
      kind_ = Kind::kInline;
    } else {
      D* p = new D(std::forward<F>(fn));
      std::memcpy(buf_, &p, sizeof p);
      ops_ = &HeapOps<D>::kOps;
      kind_ = Kind::kHeap;
    }
  }

  void reset() {
    if (kind_ == Kind::kInline || kind_ == Kind::kHeap) {
      // Trivially-destructible inline captures register a null destroy
      // hook; skipping the indirect call keeps slot recycling cheap.
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
    kind_ = Kind::kEmpty;
  }

  explicit operator bool() const { return kind_ != Kind::kEmpty; }

  /// Runs the payload (it stays constructed; callers reset() after).
  void invoke() { ops_->invoke(buf_); }

 private:
  enum class Kind : std::uint8_t {
    kEmpty,
    kInline,   ///< callable constructed in buf_
    kHeap,     ///< buf_ holds a pointer to a heap-allocated callable
  };

  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* src, void* dst) noexcept;  // move-construct + destroy src
    void (*destroy)(void* buf) noexcept;              // null when trivial
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* buf) { (*static_cast<D*>(buf))(); }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* buf) noexcept { static_cast<D*>(buf)->~D(); }
    static constexpr Ops kOps = {
        &invoke, &relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* get(void* buf) {
      D* p;
      std::memcpy(&p, buf, sizeof p);
      return p;
    }
    static void invoke(void* buf) { (*get(buf))(); }
    static void relocate(void* src, void* dst) noexcept {
      std::memcpy(dst, src, sizeof(D*));
    }
    static void destroy(void* buf) noexcept { delete get(buf); }
    static constexpr Ops kOps = {&invoke, &relocate, &destroy};
  };

  void move_from(EventClosure& other) noexcept {
    kind_ = other.kind_;
    ops_ = other.ops_;
    switch (other.kind_) {
      case Kind::kEmpty:
        break;
      case Kind::kInline:
        ops_->relocate(other.buf_, buf_);
        break;
      case Kind::kHeap:
        std::memcpy(buf_, other.buf_, sizeof(void*));
        break;
    }
    other.kind_ = Kind::kEmpty;
    other.ops_ = nullptr;
  }

  // Dispatch header first: for small captures the header and the capture
  // share a cache line, so firing + recycling touches one line per slot.
  const Ops* ops_ = nullptr;
  Kind kind_ = Kind::kEmpty;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

class Simulator {
 public:
  Simulator() = default;
  // Pinned where it is built: every port and host of a Network holds a
  // pointer to its simulator, so a moved simulator would leave them
  // scheduling into the moved-from one.
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;
  ~Simulator();

  /// Current simulation time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling in the past is a
  /// bug; the kernel clamps `t` to now() — keeping the clock monotonic
  /// in every build mode — and counts the violation (see
  /// `past_schedule_clamps`).
  template <typename F>
  void at(SimTime t, F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (kFitsEntry<D>) {
      push(make_inline_entry<D>(clamp_time(t), next_seq_++,
                                std::forward<F>(fn)));
    } else {
      const std::uint32_t slot = acquire_slot();
      slot_ref(slot).fn.emplace(std::forward<F>(fn));
      push(arena_entry(t, slot));
    }
  }

  /// Schedules `fn` after a delay of `dt` seconds (dt >= 0).
  template <typename F>
  void after(SimTime dt, F&& fn) {
    at(now_ + dt, std::forward<F>(fn));
  }

  /// Like `at`/`after`, but returns a handle the caller can `cancel`.
  template <typename F>
  TimerHandle timer_at(SimTime t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.fn.emplace(std::forward<F>(fn));
    push(arena_entry(t, slot | kCancelBit));
    return TimerHandle{slot, s.gen};
  }
  template <typename F>
  TimerHandle timer_after(SimTime dt, F&& fn) {
    return timer_at(now_ + dt, std::forward<F>(fn));
  }

  /// Cancels a pending timer: the event is removed from the queue and
  /// will not fire. Returns false (harmlessly) if the timer already
  /// fired, was already cancelled, or the handle is stale/default; the
  /// handle is reset either way.
  bool cancel(TimerHandle& h);

  /// Delivers `pkt` to `peer` after `dt` (Port's propagation event).
  /// The delivery joins the delay lane for `dt`, touching neither the
  /// heap nor the arena; when no lane can take it (every lane busy with
  /// another delay, or `t` ordering before the lane's tail) it takes
  /// the `deliver_at` path at the same time and seq.
  void deliver_after(SimTime dt, Node* peer, Packet pkt) {
    const SimTime t = clamp_time(now_ + dt);
    Lane* lane = lane_for(std::bit_cast<std::uint64_t>(dt));
    if (lane == nullptr ||
        (!lane->ring.empty() && t < lane->ring.back().time)) {
      deliver_at(t, peer, pkt);
      return;
    }
    lane->ring.push_back(LaneEntry{t, next_seq_++, peer, pkt});
  }

  /// Delivers `pkt` to `peer` at absolute time `t`, as an ordinary
  /// closure event: how cross-shard arrivals enter a shard's queue
  /// (parsim mailbox drain). The timestamp was computed on the sending
  /// shard; conservative lookahead guarantees it is never in this
  /// shard's past, but clamp_time still applies as a backstop.
  void deliver_at(SimTime t, Node* peer, Packet pkt);

  /// Takes the seq the next scheduled event would get, for an event
  /// that may be scheduled later (or never) at that place in the order.
  ReservedSeq reserve_seq() { return ReservedSeq{next_seq_++}; }

  /// True when an event at (t, s) would already have run: it orders
  /// before the running event or, between runs, at or before the point
  /// where the last run stopped. A run that returns without stop()
  /// counts every seq handed out so far as passed at its final clock.
  bool passed(SimTime t, ReservedSeq s) const {
    return t < now_ ||
           (t == now_ && static_cast<std::int32_t>(s.seq - frontier_seq_) < 0);
  }

  /// Schedules `fn` at (t, s), a place reserved earlier and not yet
  /// passed. The capture must fit in the queue entry (one pointer, as
  /// for the port's transmitter release), so no arena slot is touched.
  template <typename F>
  void at_reserved(SimTime t, ReservedSeq s, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(kFitsEntry<D>, "reserved-seq events ride in the entry");
    assert(!passed(t, s) && "scheduling at a place already passed");
    push(make_inline_entry<D>(clamp_time(t), s.seq, std::forward<F>(fn)));
  }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs events with time <= t, then sets the clock to t.
  void run_until(SimTime t);

  /// Absolute time of the earliest pending event, or +infinity when the
  /// queue is empty. This is the horizon query of the conservative
  /// parallel executor (parsim): the global safe window is
  /// [min over shards of next_event_time(), +lookahead).
  SimTime next_event_time();

  /// Runs events with time strictly < `end` (the half-open safe window
  /// of conservative synchronization), honouring stop(). Unlike
  /// run_until, the clock is NOT advanced to `end`: it stays at the last
  /// executed event, so a shard's past-time clamp (see clamp_time) is
  /// always judged against *local* progress, never against a global
  /// window bound the shard has not actually reached.
  void run_window(SimTime end);

  /// Stops the run loop after the current event handler returns.
  void stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return processed_; }
  bool empty() const { return queue_size() == 0; }

  /// Pending (live) events in the queue. Cancelled timers are removed
  /// eagerly, so a flow that re-arms its RTO holds exactly one slot.
  std::size_t queue_size() const {
    std::size_t n = heap_.size();
    for (std::uint32_t i = 0; i < lane_count_; ++i) n += lanes_[i].ring.size();
    return n;
  }

  std::uint64_t timers_cancelled() const { return cancelled_; }

  /// Where the queued packets of every port on this simulator live
  /// (sim/packet_store.h). Like the heap, the arena and the lanes, it
  /// belongs to this simulator's thread alone.
  PacketStore& packet_store() { return packets_; }

  /// Times a caller tried to schedule before now() and was clamped.
  std::uint64_t past_schedule_clamps() const { return past_clamps_; }

 private:
  // Queue entries are 32 bytes. `seq` is the low 32 bits of the
  // insertion sequence; ties compare with wraparound subtraction, which
  // reproduces exact FIFO order as long as equal-time events coexisting
  // in the queue were scheduled within 2^31 schedules of each other
  // (real queues are orders of magnitude smaller). The same holds for a
  // reserved seq against the events and the frontier it meets at its
  // time.
  //
  // `slot` selects the payload's home: an arena slot id (bit 31 marks a
  // cancellable entry whose arena slot mirrors its heap position —
  // plain events never touch the arena while sifting), or the
  // kInlineSlot sentinel meaning the payload lives *in the entry*:
  // `fn` is a plain function pointer and `payload` holds a small
  // trivially-copyable capture. In-entry events bypass the arena
  // entirely on both the schedule and the fire path.
  struct HeapEntry {
    SimTime time;
    std::uint32_t seq;
    std::uint32_t slot;
    void (*fn)(void*);
    alignas(8) unsigned char payload[8];
  };
  static_assert(sizeof(HeapEntry) == 32);

  /// Captures storable directly in a queue entry. Trivial copyability
  /// is required because entries relocate by memcpy during sifting.
  template <typename D>
  static constexpr bool kFitsEntry =
      sizeof(D) <= sizeof(HeapEntry::payload) && alignof(D) <= 8 &&
      std::is_trivially_copyable_v<D>;
  // A delay lane: the pending deliveries scheduled with one delay, in
  // schedule order. For a fixed dt, fl(now + dt) never decreases (the
  // clock never runs backwards and IEEE-754 addition is monotone), and
  // seqs only grow, so the ring is already in (time, seq) order and its
  // front is its minimum. The packet travels inside the entry, so a
  // delivery touches no arena slot when it is scheduled or when it
  // fires. `key` is the bit pattern of the delay; a lane takes a new key
  // only while empty, so no two lanes share one. Up to kLanes lanes are
  // created on first use; the benchmark's workloads need at most 2
  // (dumbbell), 6 per shard (fat-tree) and 3 (hybrid).
  struct LaneEntry {
    SimTime time;
    std::uint32_t seq;
    Node* peer;
    Packet pkt;
  };
  struct Lane {
    std::uint64_t key = 0;
    util::RingBuffer<LaneEntry> ring;
  };
  static constexpr std::uint32_t kLanes = 8;
  /// Where the earliest pending event sits (see pick): a lane index, or
  /// one of these.
  static constexpr std::uint32_t kHeapTop = kLanes;
  static constexpr std::uint32_t kNoEvent = kLanes + 1;

  struct Slot {
    EventClosure fn;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  ///< heap index (cancellable) or free-list link
  };

  static constexpr std::uint32_t kCancelBit = 0x80000000u;
  /// `slot` sentinel for in-entry payloads (no arena slot, no cancel
  /// bit, and above any reachable arena id).
  static constexpr std::uint32_t kInlineSlot = 0x7fffffffu;
  // 256 slots (~40 KiB) per chunk: small enough that glibc serves chunks
  // from its recycled arena instead of fresh mmap'd pages, so repeated
  // simulator construction reuses warm memory.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  Slot& slot_ref(std::uint32_t id) {
    return reinterpret_cast<Slot*>(
        chunks_[id >> kChunkShift].get())[id & kChunkMask];
  }

  SimTime clamp_time(SimTime t) {
    if (t < now_) {
      // Scheduling in the past is a bug in the caller; rather than let
      // the clock run backwards (or abort a release-mode run), pin the
      // event to now and count the violation.
      t = now_;
      ++past_clamps_;
    }
    // Normalise -0.0 to +0.0 so the clock never reads -0.0; exact for
    // every other input.
    return t + 0.0;
  }

  /// Builds an event whose payload lives in arena slot `slot_bits`
  /// (with kCancelBit for a timer).
  HeapEntry arena_entry(SimTime t, std::uint32_t slot_bits) {
    HeapEntry e;
    e.time = clamp_time(t);
    e.seq = next_seq_++;
    e.slot = slot_bits;
    return e;
  }

  /// Builds an in-entry event: the capture is constructed directly in
  /// the entry's payload bytes and dispatched through a plain function
  /// pointer, bypassing the arena on both schedule and fire.
  template <typename D, typename F>
  static HeapEntry make_inline_entry(SimTime t, std::uint32_t seq, F&& fn) {
    HeapEntry e;
    e.time = t;
    e.seq = seq;
    e.slot = kInlineSlot;
    e.fn = [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); };
    ::new (static_cast<void*>(e.payload)) D(std::forward<F>(fn));
    return e;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Adds an entry to the heap (sift_up records a cancellable entry's
  /// position in its slot).
  void push(const HeapEntry& e) {
    heap_.push_back(e);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  }
  void remove_at(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void place(const HeapEntry& e, std::uint32_t pos) {
    heap_[pos] = e;
    if (e.slot & kCancelBit) slot_ref(e.slot & ~kCancelBit).pos = pos;
  }
  /// The lane keyed `key`, else an empty lane re-keyed to it, else a new
  /// lane; nullptr when all kLanes lanes hold other delays.
  Lane* lane_for(std::uint64_t key) {
    Lane* idle = nullptr;
    for (std::uint32_t i = 0; i < lane_count_; ++i) {
      Lane& lane = lanes_[i];
      if (lane.key == key) return &lane;
      if (idle == nullptr && lane.ring.empty()) idle = &lane;
    }
    if (idle == nullptr) {
      if (lane_count_ == kLanes) return nullptr;
      idle = &lanes_[lane_count_++];
    }
    idle->key = key;
    return idle;
  }
  /// Finds the earliest pending event by (time, seq) among the heap top
  /// and the lane heads. Returns false when the queue is empty;
  /// otherwise records where the event sits and its time in next_src_ /
  /// next_time_.
  bool pick();
  /// Runs the event the last pick() found.
  void pop();
  void fire(HeapEntry e);
  /// Closes a run: unless stop() cut it short, every seq handed out so
  /// far is passed at the final clock.
  void end_run() {
    if (!stopped_) frontier_seq_ = next_seq_;
  }

  SimTime now_ = 0.0;
  std::uint32_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t past_clamps_ = 0;
  /// Seq half of the `passed` frontier (its time half is now_): the
  /// running event's seq, or next_seq_ once a run has returned.
  std::uint32_t frontier_seq_ = 0;
  bool stopped_ = false;
  std::vector<HeapEntry> heap_;
  std::array<Lane, kLanes> lanes_;
  std::uint32_t lane_count_ = 0;  ///< lanes keyed so far
  std::uint32_t next_src_ = kNoEvent;
  SimTime next_time_ = 0.0;
  // Payload arena: fixed-size chunks of raw storage. Slots have stable
  // addresses (events run in place), growth never relocates pending
  // payloads, and a fresh chunk costs one allocation — slots are
  // constructed lazily on first use.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = TimerHandle::kInvalid;
  PacketStore packets_;
};

}  // namespace dtdctcp::sim
