// RingBuffer: the FIFO ring behind every queue discipline (of packet
// store handles) and every delay lane of the event kernel.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "queue/ecn_threshold.h"
#include "util/ring_buffer.h"

#include "queue_test_util.h"

namespace dtdctcp {
namespace {

TEST(RingBuffer, StartsEmptyWithNoAllocation) {
  util::RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 0u);
}

TEST(RingBuffer, FifoOrderThroughGrowth) {
  util::RingBuffer<int> rb;
  for (int i = 0; i < 1000; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 1000u);
  // Power-of-two capacity at least the size.
  EXPECT_GE(rb.capacity(), 1000u);
  EXPECT_EQ(rb.capacity() & (rb.capacity() - 1), 0u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowthAcrossWrapPoint) {
  // Walk head around the buffer so the live elements straddle the
  // physical end, then force a growth: the relocation must preserve
  // logical order.
  util::RingBuffer<int> rb;
  rb.reserve(8);
  ASSERT_EQ(rb.capacity(), 8u);
  int next = 0;
  for (int i = 0; i < 6; ++i) rb.push_back(next++);
  for (int i = 0; i < 5; ++i) rb.pop_front();  // head at physical 5
  for (int i = 0; i < 7; ++i) rb.push_back(next++);  // wraps, fills to 8
  ASSERT_EQ(rb.size(), 8u);
  ASSERT_EQ(rb.capacity(), 8u);
  rb.push_back(next++);  // grows to 16 while wrapped
  EXPECT_EQ(rb.capacity(), 16u);
  EXPECT_EQ(rb.size(), 9u);
  for (int expect = 5; expect < next; ++expect) {
    EXPECT_EQ(rb.front(), expect);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, InterleavedPushPopKeepsOrder) {
  util::RingBuffer<int> rb;
  int pushed = 0;
  int popped = 0;
  // Push two, pop one: the queue deepens while continuously cycling, so
  // the head crosses the wrap point many times at several capacities.
  for (int round = 0; round < 500; ++round) {
    rb.push_back(pushed++);
    rb.push_back(pushed++);
    ASSERT_EQ(rb.front(), popped);
    rb.pop_front();
    ++popped;
  }
  EXPECT_EQ(rb.size(), 500u);
  while (!rb.empty()) {
    ASSERT_EQ(rb.front(), popped++);
    rb.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(RingBuffer, IndexingIsLogicalFifoOrder) {
  util::RingBuffer<int> rb;
  rb.reserve(8);
  for (int i = 0; i < 8; ++i) rb.push_back(i);
  for (int i = 0; i < 4; ++i) rb.pop_front();
  for (int i = 8; i < 12; ++i) rb.push_back(i);  // physically wrapped
  ASSERT_EQ(rb.size(), 8u);
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb[i], static_cast<int>(i) + 4);
  }
  EXPECT_EQ(rb.front(), 4);
  EXPECT_EQ(rb.back(), 11);
}

TEST(RingBuffer, MoveOnlyElements) {
  util::RingBuffer<std::unique_ptr<int>> rb;
  for (int i = 0; i < 100; ++i) rb.push_back(std::make_unique<int>(i));
  // Growth relocated the pointers by move; all values intact.
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(rb.front(), nullptr);
    EXPECT_EQ(*rb.front(), i);
    std::unique_ptr<int> taken = std::move(rb.front());
    rb.pop_front();
    EXPECT_EQ(*taken, i);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, ClearDestroysAndAllowsReuse) {
  // Count destructions through a shared_ptr's control block.
  auto sentinel = std::make_shared<int>(7);
  util::RingBuffer<std::shared_ptr<int>> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(sentinel);
  EXPECT_EQ(sentinel.use_count(), 21);
  rb.clear();
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_TRUE(rb.empty());
  rb.push_back(sentinel);
  EXPECT_EQ(rb.size(), 1u);
  EXPECT_EQ(*rb.front(), 7);
}

TEST(RingBuffer, MoveConstructAndAssignTransferOwnership) {
  util::RingBuffer<int> a;
  for (int i = 0; i < 10; ++i) a.push_back(i);
  util::RingBuffer<int> b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.size(), 10u);
  util::RingBuffer<int> c;
  c.push_back(99);
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  ASSERT_EQ(c.size(), 10u);
  EXPECT_EQ(c.front(), 0);
  EXPECT_EQ(c.back(), 9);
}

TEST(RingBuffer, AdversarialChurnMatchesDeque) {
  // Random interleaving of pushes and pops, cross-checked against
  // std::deque as the reference semantics — the pattern a switch port
  // generates under bursty load, where std::deque's chunk boundary
  // churn was the original motivation for the ring.
  std::mt19937 rng(1234);
  util::RingBuffer<std::size_t> rb;
  std::deque<std::size_t> ref;
  std::size_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Biased phases: mostly-push while shallow, mostly-pop while deep,
    // so depth sweeps up and down across several growth thresholds.
    const bool deep = ref.size() > 600;
    const bool push = (rng() % 100) < (deep ? 30u : 70u);
    if (push || ref.empty()) {
      rb.push_back(next);
      ref.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(rb.front(), ref.front());
      rb.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(rb.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(rb.front(), ref.front());
    rb.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(QueueDiscConformance, CountersUnchangedByDequeueApiMigration) {
  // The move-out dequeue API must leave the discipline's exact event
  // accounting identical to the historical optional-returning API: every
  // offered packet is enqueued, rejected, or bypassed; every enqueued
  // packet is dequeued or still queued; marks happen at admission.
  queue::EcnThresholdQueue q(5 * 1500, 0, 2.0, queue::ThresholdUnit::kPackets);
  sim::Packet p;
  p.size_bytes = 1500;
  p.ect = true;

  // Bypass path: 2 packets offered to an empty idle port.
  for (int i = 0; i < 2; ++i) {
    sim::Packet x = p;
    q.on_bypass(x, 0.0);
  }
  // Queue path: 8 offered, capacity 5 → 5 admitted, 3 rejected. The
  // 3rd, 4th and 5th admissions arrive at occupancy >= K=2 → 3 marks.
  for (int i = 0; i < 8; ++i) {
    sim::Packet x = p;
    x.seq = i;
    q.enqueue(x, 0.1);
  }
  // Drain 4 of the 5.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(deq(q, 0.2).has_value());

  const sim::Counters c = q.counters();
  EXPECT_EQ(c.offered, 10u);
  EXPECT_EQ(c.bypassed, 2u);
  EXPECT_EQ(c.enqueued, 5u);
  EXPECT_EQ(c.dropped, 3u);
  EXPECT_EQ(c.dequeued, 4u);
  EXPECT_EQ(c.marked, 3u);
  // Conservation: admitted = drained + resident.
  EXPECT_EQ(c.enqueued, c.dequeued + q.packets());
  EXPECT_EQ(q.packets(), 1u);
  // Empty-queue dequeue reports false and does not touch the counters.
  EXPECT_TRUE(deq(q, 0.3).has_value());
  EXPECT_FALSE(deq(q, 0.3).has_value());
  EXPECT_EQ(q.counters().dequeued, 5u);
}

}  // namespace
}  // namespace dtdctcp
