// sim::PacketStore: one slab of queued packets per simulator. The
// storage test counts this executable's global allocations, so queue
// memory is measured as the allocator sees it: it must follow the
// simulator's peak total occupancy, not the sum of per-port peaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "parsim/partition.h"
#include "parsim/sharded_network.h"
#include "queue/codel.h"
#include "queue/drop_tail.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "queue/factory.h"
#include "queue/multi_queue.h"
#include "queue/pie.h"
#include "queue/red.h"
#include "sim/fabric.h"
#include "sim/packet_store.h"
#include "sim/port.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

std::atomic<std::size_t> g_bytes{0};

void* counted_malloc(std::size_t n) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

// Out of line: inlined into a delete-expression, free() would read to
// GCC as freeing memory that came from operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable form, plain and aligned (util::RingBuffer uses the
// aligned ones), goes through malloc-family calls and free, so the
// pairs still match under AddressSanitizer.
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace dtdctcp {
namespace {

sim::Packet numbered(std::uint64_t uid) {
  sim::Packet p;
  p.uid = uid;
  p.size_bytes = 1500;
  return p;
}

// --- the store itself -------------------------------------------------

TEST(PacketStore, TakeReturnsWhatWasPutAndRecyclesTheSlot) {
  sim::PacketStore store;
  const auto a = store.put(numbered(1)).handle;
  const auto b = store.put(numbered(2)).handle;
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.capacity(), sim::PacketStore::kChunkSize);
  sim::Packet out;
  store.take(a, out);
  EXPECT_EQ(out.uid, 1u);
  // The freed slot is handed out again before any new one.
  EXPECT_EQ(store.put(numbered(3)).handle, a);
  store.take(b, out);
  EXPECT_EQ(out.uid, 2u);
  EXPECT_EQ(store.size(), 1u);
  store.take(a, out);
  EXPECT_EQ(out.uid, 3u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PacketStore, SlotsKeepTheirAddressesAcrossGrowth) {
  sim::PacketStore store;
  // The reference put returned stays valid (and the packet in place)
  // while two more chunks are added.
  sim::Packet& first = store.put(numbered(0)).pkt;
  std::vector<sim::PacketStore::Handle> handles;
  for (std::uint64_t i = 1; i < 3 * sim::PacketStore::kChunkSize; ++i) {
    handles.push_back(store.put(numbered(i)).handle);
  }
  EXPECT_EQ(store.capacity(), 3 * sim::PacketStore::kChunkSize);
  EXPECT_EQ(first.uid, 0u);
  sim::Packet out;
  for (std::uint64_t i = 0; i < handles.size(); ++i) {
    store.take(handles[i], out);
    EXPECT_EQ(out.uid, i + 1);
  }
}

// --- queue memory follows total occupancy -----------------------------

class NullSink : public sim::Node {
 public:
  NullSink() : Node(0, "sink") {}
  void receive(sim::Packet) override {}
};

TEST(PacketStore, QueueStorageFollowsTotalOccupancyNotPerPortPeaks) {
  // Eight egress queues on one simulator each reach 200 packets, one
  // after another. Per-port packet rings would end up holding eight
  // 256-slot rings (about 258 KB allocated on the way); the store holds
  // one 256-slot chunk, and each queue a ring of 4-byte handles.
  constexpr std::size_t kPorts = 8;
  constexpr std::size_t kDepth = 200;
  sim::Simulator s;
  NullSink sink;
  std::vector<std::unique_ptr<sim::Port>> ports;
  for (std::size_t i = 0; i < kPorts; ++i) {
    ports.push_back(std::make_unique<sim::Port>(
        s, units::gbps(10), 1e-6,
        std::make_unique<queue::DropTailQueue>(0, 0)));
    ports.back()->attach_peer(&sink);
  }
  // Warm the kernel up (its delay lane and heap) so only buffering is
  // counted below.
  for (auto& port : ports) port->send(numbered(0));
  s.run();

  const std::size_t before = g_bytes.load();
  std::size_t peak = 0;
  for (auto& port : ports) {
    // One packet goes to the wire, kDepth wait behind it.
    for (std::size_t k = 0; k <= kDepth; ++k) port->send(numbered(k));
    ASSERT_EQ(port->disc().packets(), kDepth);
    peak = std::max(peak, s.packet_store().size());
    s.run();
    ASSERT_EQ(port->disc().packets(), 0u);
  }
  const std::size_t allocated = g_bytes.load() - before;
  EXPECT_EQ(peak, kDepth);
  EXPECT_EQ(s.packet_store().size(), 0u);
  EXPECT_EQ(s.packet_store().capacity(), sim::PacketStore::kChunkSize);
  EXPECT_LT(allocated, 48u * 1024u);
}

TEST(PacketStore, ShardPortsQueueInTheirShardsStore) {
  sim::FatTreeConfig cfg;
  cfg.k = 4;
  sim::Clos fabric = sim::build_fat_tree(cfg, queue::drop_tail(0, 100));
  parsim::ShardedNetwork sharded(*fabric.net,
                                 parsim::fat_tree_partition(fabric, 2));
  sim::Switch* mine = nullptr;
  for (sim::Switch* sw : fabric.edges) {
    if (sharded.shard_of(sw->id()) == 1) {
      mine = sw;
      break;
    }
  }
  ASSERT_NE(mine, nullptr);
  // Port 0 of an edge is an uplink inside the pod, so its peer is on
  // shard 1 too and the packets stay local.
  sim::Port& port = mine->port(0);
  ASSERT_EQ(&port.simulator(), &sharded.shard_sim(1));
  port.send(numbered(1));  // on the wire
  port.send(numbered(2));  // queued
  EXPECT_EQ(port.disc().packets(), 1u);
  EXPECT_EQ(sharded.shard_sim(1).packet_store().size(), 1u);
  EXPECT_EQ(sharded.shard_sim(0).packet_store().size(), 0u);
}

// --- a bound discipline behaves exactly like an unbound twin ----------

struct Twin {
  const char* name;
  std::unique_ptr<sim::QueueDisc> (*make)();
  bool marks;  ///< signals congestion with CE
};

std::unique_ptr<sim::QueueDisc> make_drop_tail() {
  return std::make_unique<queue::DropTailQueue>(0, 24);
}
std::unique_ptr<sim::QueueDisc> make_threshold() {
  return std::make_unique<queue::EcnThresholdQueue>(
      0, 24, 8.0, queue::ThresholdUnit::kPackets);
}
std::unique_ptr<sim::QueueDisc> make_hysteresis() {
  return std::make_unique<queue::EcnHysteresisQueue>(
      20000, 0, 6000.0, 12000.0, queue::ThresholdUnit::kBytes);
}
std::unique_ptr<sim::QueueDisc> make_red() {
  queue::RedConfig cfg;
  cfg.min_th = 3.0;
  cfg.max_th = 10.0;
  cfg.weight = 0.2;
  return std::make_unique<queue::RedQueue>(0, 24, cfg);
}
std::unique_ptr<sim::QueueDisc> make_pie() {
  queue::PieConfig cfg;
  cfg.target_delay = 5e-6;
  cfg.update_interval = 10e-6;
  cfg.alpha = 125.0;
  cfg.beta = 1250.0;
  return std::make_unique<queue::PieQueue>(0, 24, cfg, units::gbps(1));
}
std::unique_ptr<sim::QueueDisc> make_codel() {
  queue::CodelConfig cfg;
  cfg.target = 5e-6;
  cfg.interval = 20e-6;
  return std::make_unique<queue::CodelQueue>(0, 24, cfg);
}
std::unique_ptr<sim::QueueDisc> make_wrr() {
  std::vector<std::unique_ptr<sim::QueueDisc>> classes;
  classes.push_back(make_threshold());
  classes.push_back(make_codel());
  return std::make_unique<queue::MultiQueueDisc>(
      std::move(classes), queue::SchedPolicy::kWrr,
      std::vector<std::uint32_t>{2, 1});
}

auto fields(const sim::Packet& p) {
  return std::make_tuple(
      p.uid, p.seq, p.ts_echo, p.flow, p.src, p.dst, p.sack[0].begin,
      p.sack[0].end, p.sack[1].begin, p.sack[1].end, p.sack[2].begin,
      p.sack[2].end, p.size_bytes, p.sack_count, static_cast<bool>(p.is_ack),
      static_cast<bool>(p.ect), static_cast<bool>(p.ce),
      static_cast<bool>(p.ece), static_cast<bool>(p.cwr),
      static_cast<bool>(p.retransmit), static_cast<int>(p.prio));
}

auto totals(const sim::Counters& c) {
  return std::make_tuple(c.offered, c.enqueued, c.dequeued, c.bypassed,
                         c.dropped, c.marked);
}

class BoundDiscipline : public ::testing::TestWithParam<Twin> {};

TEST_P(BoundDiscipline, MatchesItsUnboundTwin) {
  const Twin& twin = GetParam();
  sim::PacketStore shared;
  std::unique_ptr<sim::QueueDisc> bound = twin.make();
  std::unique_ptr<sim::QueueDisc> unbound = twin.make();
  bound->bind_store(shared);
  // Other disciplines churn through the shared store, so the bound
  // discipline's handles land scattered among theirs.
  std::vector<std::unique_ptr<sim::QueueDisc>> churn;
  for (int i = 0; i < 3; ++i) {
    churn.push_back(std::make_unique<queue::DropTailQueue>(0, 40));
    churn.back()->bind_store(shared);
  }

  Rng rng(20240607);
  SimTime now = 0.0;
  std::uint64_t uid = 0;
  std::size_t dequeued = 0;
  std::size_t dropped = 0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.uniform(0.0, 2e-6);
    for (auto& q : churn) {
      sim::Packet p = numbered(1u << 30 | uid);
      if (rng.uniform(0.0, 1.0) < 0.5) {
        q->enqueue(p, now);
      } else {
        q->dequeue(p, now);
      }
    }
    // Enqueue-heavy bursts alternate with drains, so the queues both
    // overflow their limits and run empty.
    const bool burst = (step / 200) % 2 == 0;
    if (rng.uniform(0.0, 1.0) < (burst ? 0.7 : 0.3)) {
      sim::Packet p;
      p.uid = ++uid;
      p.seq = static_cast<std::int64_t>(rng.uniform_int(0, 1 << 20));
      p.ts_echo = now;
      p.flow = static_cast<sim::FlowId>(rng.uniform_int(1, 9));
      p.src = 1;
      p.dst = 2;
      p.size_bytes = static_cast<std::uint16_t>(rng.uniform_int(64, 1500));
      p.ect = rng.uniform(0.0, 1.0) < 0.7;
      p.is_ack = p.size_bytes < 100;
      p.prio = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
      p.add_sack_block(p.seq + 2, p.seq + 5);
      sim::Packet q = p;
      const sim::EnqueueResult r_bound = bound->enqueue(p, now);
      const sim::EnqueueResult r_unbound = unbound->enqueue(q, now);
      ASSERT_EQ(r_bound, r_unbound) << "step " << step;
      ASSERT_EQ(fields(p), fields(q)) << "step " << step;
      if (r_bound == sim::EnqueueResult::kDropped) ++dropped;
    } else {
      sim::Packet a;
      sim::Packet b;
      const bool got_bound = bound->dequeue(a, now);
      const bool got_unbound = unbound->dequeue(b, now);
      ASSERT_EQ(got_bound, got_unbound) << "step " << step;
      if (got_bound) {
        ASSERT_EQ(fields(a), fields(b)) << "step " << step;
        ++dequeued;
      }
    }
    ASSERT_EQ(bound->packets(), unbound->packets()) << "step " << step;
    ASSERT_EQ(bound->bytes(), unbound->bytes()) << "step " << step;
  }
  EXPECT_EQ(totals(bound->counters()), totals(unbound->counters()));
  // The sequence exercised what it is meant to.
  EXPECT_GT(dequeued, 1000u);
  EXPECT_GT(dropped, 0u);
  if (twin.marks) {
    EXPECT_GT(bound->counters().marked, 100u);
  }
  // Only the bound discipline's and the churners' packets are in the
  // shared store.
  std::size_t held = bound->packets();
  for (const auto& q : churn) held += q->packets();
  EXPECT_EQ(shared.size(), held);
}

INSTANTIATE_TEST_SUITE_P(
    EveryBufferingDiscipline, BoundDiscipline,
    ::testing::Values(Twin{"drop_tail", &make_drop_tail, false},
                      Twin{"ecn_threshold", &make_threshold, true},
                      Twin{"ecn_hysteresis", &make_hysteresis, true},
                      Twin{"red", &make_red, true},
                      Twin{"pie", &make_pie, true},
                      Twin{"codel", &make_codel, true},
                      Twin{"wrr_two_class", &make_wrr, true}),
    [](const ::testing::TestParamInfo<Twin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dtdctcp
