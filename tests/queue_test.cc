// Unit and property tests for the queue disciplines, centered on the
// marking semantics of DCTCP (relay) vs DT-DCTCP (hysteresis).
#include <gtest/gtest.h>

#include <vector>

#include "queue/codel.h"
#include "queue/drop_tail.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "queue/factory.h"
#include "queue/marking_rule.h"
#include "queue/pie.h"
#include "queue/red.h"
#include "util/rng.h"

#include "queue_test_util.h"

namespace dtdctcp {
namespace {

sim::Packet data_packet(std::uint32_t bytes = 1500, bool ect = true) {
  sim::Packet p;
  p.size_bytes = bytes;
  p.ect = ect;
  return p;
}

// --- DropTail ---------------------------------------------------------

TEST(DropTail, FifoOrder) {
  queue::DropTailQueue q(0, 0);
  for (int i = 0; i < 5; ++i) {
    auto p = data_packet();
    p.seq = i;
    EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  }
  for (int i = 0; i < 5; ++i) {
    auto p = deq(q, 0.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(deq(q, 0.0).has_value());
}

TEST(DropTail, ByteLimitDrops) {
  queue::DropTailQueue q(3000, 0);
  auto p = data_packet(1500);
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kDropped);
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.bytes(), 3000u);
  EXPECT_EQ(q.packets(), 2u);
}

TEST(DropTail, PacketLimitDrops) {
  queue::DropTailQueue q(0, 2);
  auto p = data_packet();
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kDropped);
}

TEST(DropTail, ObserverSeesEveryChange) {
  queue::DropTailQueue q(0, 0);
  LengthRecorder recorder;
  q.set_observer(&recorder);
  auto p = data_packet();
  q.enqueue(p, 0.0);
  q.enqueue(p, 1.0);
  deq(q, 2.0);
  EXPECT_EQ(recorder.lengths, (std::vector<std::size_t>{1, 2, 1}));
}

// --- DCTCP single threshold -------------------------------------------

TEST(EcnThreshold, MarksWhenOccupancyAtLeastK) {
  // K = 3 packets: packets arriving when 3+ already queued get marked.
  queue::EcnThresholdQueue q(0, 0, 3.0, queue::ThresholdUnit::kPackets);
  std::vector<bool> marked;
  for (int i = 0; i < 6; ++i) {
    auto p = data_packet();
    q.enqueue(p, 0.0);
    marked.push_back(p.ce);
  }
  EXPECT_EQ(marked, (std::vector<bool>{false, false, false, true, true, true}));
  EXPECT_EQ(q.marks(), 3u);
}

TEST(EcnThreshold, NeverMarksNonEct) {
  queue::EcnThresholdQueue q(0, 0, 1.0, queue::ThresholdUnit::kPackets);
  for (int i = 0; i < 4; ++i) {
    auto p = data_packet(1500, /*ect=*/false);
    q.enqueue(p, 0.0);
    EXPECT_FALSE(p.ce);
  }
  EXPECT_EQ(q.marks(), 0u);
}

TEST(EcnThreshold, ByteUnitThreshold) {
  // K = 4000 bytes: marking begins once 4000+ bytes are queued.
  queue::EcnThresholdQueue q(0, 0, 4000.0, queue::ThresholdUnit::kBytes);
  auto p1 = data_packet(1500);
  auto p2 = data_packet(1500);
  auto p3 = data_packet(1500);  // queue at 3000 before -> no mark
  auto p4 = data_packet(1500);  // queue at 4500 before -> mark
  q.enqueue(p1, 0.0);
  q.enqueue(p2, 0.0);
  q.enqueue(p3, 0.0);
  q.enqueue(p4, 0.0);
  EXPECT_FALSE(p3.ce);
  EXPECT_TRUE(p4.ce);
}

TEST(EcnThreshold, StopsMarkingWhenQueueFallsBelowK) {
  queue::EcnThresholdQueue q(0, 0, 2.0, queue::ThresholdUnit::kPackets);
  auto p = data_packet();
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);  // occupancy 2 -> marked
  deq(q, 0.0);
  deq(q, 0.0);  // occupancy back to 1
  auto fresh = data_packet();
  q.enqueue(fresh, 0.0);
  EXPECT_FALSE(fresh.ce);  // relay released immediately
}

TEST(EcnThreshold, DequeueMarkingUsesDepartureOccupancy) {
  // K = 3, mark at dequeue: the packet is marked if >= 3 packets remain
  // behind it when it leaves.
  queue::EcnThresholdQueue q(0, 0, 3.0, queue::ThresholdUnit::kPackets,
                             queue::MarkPoint::kDequeue);
  for (int i = 0; i < 5; ++i) {
    auto p = data_packet();
    p.seq = i;
    q.enqueue(p, 0.0);
    EXPECT_FALSE(p.ce);  // no arrival marking in dequeue mode
  }
  // Departures leave behind 4, 3, 2, 1, 0 packets.
  auto d0 = deq(q, 0.0);
  auto d1 = deq(q, 0.0);
  auto d2 = deq(q, 0.0);
  auto d3 = deq(q, 0.0);
  auto d4 = deq(q, 0.0);
  EXPECT_TRUE(d0->ce);
  EXPECT_TRUE(d1->ce);
  EXPECT_FALSE(d2->ce);
  EXPECT_FALSE(d3->ce);
  EXPECT_FALSE(d4->ce);
  EXPECT_EQ(q.marks(), 2u);
}

TEST(EcnThreshold, DequeueMarkingSkipsNonEct) {
  queue::EcnThresholdQueue q(0, 0, 1.0, queue::ThresholdUnit::kPackets,
                             queue::MarkPoint::kDequeue);
  for (int i = 0; i < 3; ++i) {
    auto p = data_packet(1500, /*ect=*/false);
    q.enqueue(p, 0.0);
  }
  auto d = deq(q, 0.0);
  EXPECT_FALSE(d->ce);
  EXPECT_EQ(q.marks(), 0u);
}

// --- DT-DCTCP hysteresis ------------------------------------------------

TEST(EcnHysteresis, MarkingStartsAtK1RisingStopsAtK2Falling) {
  // K1 = 3, K2 = 6.
  queue::EcnHysteresisQueue q(0, 0, 3.0, 6.0, queue::ThresholdUnit::kPackets);
  // Rise to 3: the packet that takes occupancy to K1 is marked.
  std::vector<bool> marks;
  for (int i = 0; i < 8; ++i) {
    auto p = data_packet();
    q.enqueue(p, 0.0);
    marks.push_back(p.ce);
  }
  // Occupancies after enqueue: 1 2 3 4 5 6 7 8 -> marking from the 3rd on.
  EXPECT_EQ(marks, (std::vector<bool>{false, false, true, true, true, true,
                                      true, true}));
  EXPECT_TRUE(q.marking());

  // Drain to 6: still marking (stop requires falling *below* K2).
  deq(q, 0.0);
  deq(q, 0.0);  // occupancy 6
  EXPECT_TRUE(q.marking());
  deq(q, 0.0);  // occupancy 5, crossed K2 downward -> stop
  EXPECT_FALSE(q.marking());

  // While idle inside (K1, K2), arriving packets are not marked (the
  // enqueue below takes occupancy to 5 + 1 = 6 only after draining one
  // more, keeping us strictly inside the band).
  deq(q, 0.0);  // occupancy 4
  auto p = data_packet();
  q.enqueue(p, 0.0);  // occupancy 5, inside the band, no fresh crossing
  EXPECT_FALSE(p.ce);
  EXPECT_FALSE(q.marking());
}

TEST(EcnHysteresis, ReArmAfterFallingBelowK1) {
  queue::EcnHysteresisQueue q(0, 0, 3.0, 6.0, queue::ThresholdUnit::kPackets);
  auto fill = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto p = data_packet();
      q.enqueue(p, 0.0);
    }
  };
  auto drain = [&](int n) {
    for (int i = 0; i < n; ++i) deq(q, 0.0);
  };
  fill(7);           // marking on
  drain(5);          // occupancy 2 < K2 crossing and < K1 -> off
  EXPECT_FALSE(q.marking());
  fill(1);           // occupancy 3: fresh upward K1 crossing -> on again
  EXPECT_TRUE(q.marking());
}

TEST(EcnHysteresis, StopsWhenDrainingBelowK1WithoutReachingK2) {
  // Start marking at K1, drain before reaching K2: marking must stop at
  // the downward K1 crossing (documented completion of the paper rule).
  queue::EcnHysteresisQueue q(0, 0, 3.0, 10.0, queue::ThresholdUnit::kPackets);
  auto p = data_packet();
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);  // occupancy 3 -> marking on
  EXPECT_TRUE(q.marking());
  deq(q, 0.0);  // occupancy 2 < K1 -> off
  EXPECT_FALSE(q.marking());
}

TEST(EcnHysteresis, InBandRiseToK2Rearms) {
  // If the queue hovers inside (K1, K2) after marking stopped and climbs
  // to K2 without dipping under K1 first, marking must re-engage.
  queue::EcnHysteresisQueue q(0, 0, 3.0, 6.0, queue::ThresholdUnit::kPackets);
  auto p = data_packet();
  for (int i = 0; i < 7; ++i) q.enqueue(p, 0.0);  // 7, marking
  deq(q, 0.0);
  deq(q, 0.0);
  deq(q, 0.0);  // 4, crossed K2 down -> off
  EXPECT_FALSE(q.marking());
  q.enqueue(p, 0.0);  // 5
  EXPECT_FALSE(q.marking());
  q.enqueue(p, 0.0);  // 6 == K2 -> safety re-arm
  EXPECT_TRUE(q.marking());
}

TEST(EcnHysteresis, EqualThresholdsDegenerateToRelayLikeBehaviour) {
  // K1 == K2 == 3: marking on at >= 3 rising, off under 3 falling.
  queue::EcnHysteresisQueue q(0, 0, 3.0, 3.0, queue::ThresholdUnit::kPackets);
  auto p = data_packet();
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);
  EXPECT_TRUE(q.marking());
  deq(q, 0.0);
  EXPECT_FALSE(q.marking());
}

TEST(EcnHysteresis, NonEctPacketsNotMarkedButDriveState) {
  queue::EcnHysteresisQueue q(0, 0, 2.0, 4.0, queue::ThresholdUnit::kPackets);
  auto p = data_packet(1500, /*ect=*/false);
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);  // occupancy 2: marking state on
  EXPECT_TRUE(q.marking());
  EXPECT_FALSE(p.ce);
  auto ect_pkt = data_packet(1500, /*ect=*/true);
  q.enqueue(ect_pkt, 0.0);
  EXPECT_TRUE(ect_pkt.ce);
}

// Property: under any random enqueue/dequeue trajectory, the automaton
// is ON whenever occupancy >= K2 and OFF whenever occupancy < K1.
TEST(EcnHysteresis, PropertyStateBoundsUnderRandomTrajectory) {
  Rng rng(123);
  queue::EcnHysteresisQueue q(0, 0, 5.0, 12.0, queue::ThresholdUnit::kPackets);
  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(0.52)) {
      auto p = data_packet();
      q.enqueue(p, 0.0);
    } else {
      deq(q, 0.0);
    }
    const double occ = static_cast<double>(q.packets());
    if (occ >= 12.0) {
      EXPECT_TRUE(q.marking()) << "at step " << step;
    }
    if (occ < 5.0) {
      EXPECT_FALSE(q.marking()) << "at step " << step;
    }
  }
}

// Property: hysteresis never double-counts — every marked packet was
// ECT and was admitted while the automaton was ON.
TEST(EcnHysteresis, MarkCountMatchesMarkedPackets) {
  Rng rng(7);
  queue::EcnHysteresisQueue q(0, 0, 3.0, 8.0, queue::ThresholdUnit::kPackets);
  std::uint64_t observed_marks = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.bernoulli(0.55)) {
      auto p = data_packet();
      q.enqueue(p, 0.0);
      if (p.ce) ++observed_marks;
    } else {
      deq(q, 0.0);
    }
  }
  EXPECT_EQ(q.marks(), observed_marks);
}

// Exhaustive bounded model check: enumerate EVERY +-1 occupancy
// trajectory of bounded length and assert the automaton's safety
// invariants on all of them. With depth 14 this covers 2^14 = 16384
// trajectories — strictly stronger than the randomized walk above.
TEST(EcnHysteresis, ExhaustiveBoundedModelCheck) {
  constexpr int kDepth = 14;
  const double kStart = 3.0;
  const double kStop = 6.0;
  for (unsigned mask = 0; mask < (1u << kDepth); ++mask) {
    queue::EcnHysteresisQueue q(0, 0, kStart, kStop,
                                queue::ThresholdUnit::kPackets);
    bool seen_start_since_off = false;
    for (int step = 0; step < kDepth; ++step) {
      const bool was_marking = q.marking();
      if (mask & (1u << step)) {
        auto p = data_packet();
        q.enqueue(p, 0.0);
        // Safety: a marked packet implies the automaton is marking.
        if (p.ce) {
          ASSERT_TRUE(q.marking())
              << "mask=" << mask << " step=" << step;
        }
      } else {
        deq(q, 0.0);
      }
      const double occ = static_cast<double>(q.packets());
      // Invariant 1: occupancy at or above K2 forces marking.
      if (occ >= kStop) {
        ASSERT_TRUE(q.marking()) << "mask=" << mask << " step=" << step;
      }
      // Invariant 2: occupancy below K1 forbids marking.
      if (occ < kStart) {
        ASSERT_FALSE(q.marking()) << "mask=" << mask << " step=" << step;
      }
      // Invariant 3: marking can only switch ON at a step where the
      // occupancy is at/above K1 (no spontaneous arming below it).
      if (!was_marking && q.marking()) {
        ASSERT_GE(occ, kStart) << "mask=" << mask << " step=" << step;
        seen_start_since_off = true;
      }
    }
    (void)seen_start_since_off;
  }
}

// --- RED ----------------------------------------------------------------

TEST(Red, NoMarkingBelowMinThreshold) {
  queue::RedConfig cfg;
  cfg.min_th = 100.0;  // way above anything we enqueue
  queue::RedQueue q(0, 0, cfg);
  for (int i = 0; i < 50; ++i) {
    auto p = data_packet();
    q.enqueue(p, i * 1e-5);
    EXPECT_FALSE(p.ce);
  }
}

TEST(Red, MarksAggressivelyAboveMaxThreshold) {
  queue::RedConfig cfg;
  cfg.min_th = 1.0;
  cfg.max_th = 5.0;
  cfg.max_p = 1.0;
  cfg.weight = 1.0;  // average == instantaneous
  queue::RedQueue q(0, 0, cfg);
  int marked = 0;
  for (int i = 0; i < 100; ++i) {
    auto p = data_packet();
    q.enqueue(p, i * 1e-5);
    if (p.ce) ++marked;
  }
  EXPECT_GT(marked, 80);
}

TEST(Red, AverageTracksQueue) {
  queue::RedConfig cfg;
  cfg.weight = 0.5;
  queue::RedQueue q(0, 0, cfg);
  for (int i = 0; i < 20; ++i) {
    auto p = data_packet();
    q.enqueue(p, i * 1e-5);
  }
  EXPECT_GT(q.average(), 5.0);
  EXPECT_LE(q.average(), 20.0);
}

// --- Edge cases: degenerate capacities and thresholds -------------------

TEST(DropTail, ZeroCapacityByteLimitRejectsEveryOffer) {
  // A byte limit smaller than any packet: nothing can ever be admitted.
  queue::DropTailQueue q(100, 0);
  for (int i = 0; i < 5; ++i) {
    auto p = data_packet();
    EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kDropped);
  }
  EXPECT_EQ(q.packets(), 0u);
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(q.drops(), 5u);
  EXPECT_FALSE(deq(q, 0.0).has_value());
  EXPECT_EQ(q.counters().offered, 5u);
  EXPECT_EQ(q.counters().enqueued, 0u);
  EXPECT_EQ(q.counters().dropped, 5u);
}

TEST(DropTail, SinglePacketBuffer) {
  queue::DropTailQueue q(0, 1);
  auto p = data_packet();
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kDropped);
  EXPECT_TRUE(deq(q, 0.0).has_value());
  // Space freed: the next offer is admitted again.
  EXPECT_EQ(q.enqueue(p, 0.0), sim::EnqueueResult::kEnqueued);
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.counters().offered, 3u);
  EXPECT_EQ(q.counters().enqueued, 2u);
  EXPECT_EQ(q.counters().dequeued, 1u);
}

TEST(EcnThreshold, ZeroThresholdMarksEveryEctPacket) {
  // K = 0: occupancy-before-admit (0) >= K on the very first packet.
  queue::EcnThresholdQueue q(0, 0, 0.0, queue::ThresholdUnit::kPackets);
  for (int i = 0; i < 4; ++i) {
    auto p = data_packet();
    q.enqueue(p, 0.0);
    EXPECT_TRUE(p.ce) << i;
  }
  auto non_ect = data_packet(1500, /*ect=*/false);
  q.enqueue(non_ect, 0.0);
  EXPECT_FALSE(non_ect.ce);
  EXPECT_EQ(q.marks(), 4u);
  EXPECT_EQ(q.counters().marked, 4u);
}

TEST(EcnThreshold, ThresholdAtBufferSizeNeverMarks) {
  // K equals the packet limit: arrival occupancy tops out at limit - 1
  // (the queue is full and drops), so the rule can never fire.
  constexpr std::size_t kLimit = 4;
  queue::EcnThresholdQueue q(0, kLimit, static_cast<double>(kLimit),
                             queue::ThresholdUnit::kPackets);
  for (int i = 0; i < 10; ++i) {
    auto p = data_packet();
    q.enqueue(p, 0.0);
    EXPECT_FALSE(p.ce) << i;
  }
  EXPECT_EQ(q.marks(), 0u);
  EXPECT_EQ(q.packets(), kLimit);
  EXPECT_EQ(q.drops(), 10u - kLimit);
}

TEST(EcnHysteresis, EqualThresholdsDrainToStartVariant) {
  // K1 == K2 == 3 under kDrainToStart: on at >= 3 rising, and marking
  // stops only when the queue drains back under K1.
  queue::EcnHysteresisQueue q(0, 0, 3.0, 3.0, queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kDrainToStart);
  auto p = data_packet();
  q.enqueue(p, 0.0);
  q.enqueue(p, 0.0);
  EXPECT_FALSE(q.marking());
  q.enqueue(p, 0.0);
  EXPECT_TRUE(q.marking());
  deq(q, 0.0);  // occupancy 2 < K1: off
  EXPECT_FALSE(q.marking());
  q.enqueue(p, 0.0);  // back to 3: on again
  EXPECT_TRUE(q.marking());
}

TEST(EcnHysteresis, EqualThresholdsHalfBandVariant) {
  // K1 == K2 collapses the 50% band to nothing: the half-band variant
  // degenerates to a pure relay marking every ECT packet admitted at
  // occupancy >= K and none below.
  queue::EcnHysteresisQueue q(0, 0, 3.0, 3.0, queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kHalfBand);
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto p1 = data_packet();
    auto p2 = data_packet();
    auto p3 = data_packet();
    q.enqueue(p1, 0.0);  // occupancy 1 after admit
    q.enqueue(p2, 0.0);  // 2
    q.enqueue(p3, 0.0);  // 3 == K: marked
    EXPECT_FALSE(p1.ce) << cycle;
    EXPECT_FALSE(p2.ce) << cycle;
    EXPECT_TRUE(p3.ce) << cycle;
    deq(q, 0.0);
    deq(q, 0.0);
    deq(q, 0.0);
    EXPECT_EQ(q.packets(), 0u);
  }
  EXPECT_EQ(q.marks(), 3u);
}

// --- Re-entry after a full drain ----------------------------------------
// Pin the documented reset semantics across excursions (see the header
// comment in queue/ecn_hysteresis.h): trend-peak re-anchors its trough
// when marking stops, half-band carries its toggle parity. These tests
// gate the fig10/fig11 byte-identical kernels — a "fix" that changes
// either behavior must re-baseline those.

TEST(EcnHysteresis, TrendPeakReentryAfterFullDrainRepeatsTheCycle) {
  // K1 = 4, K2 = 8, default margin max(1, (8-4)/8) = 1.
  queue::EcnHysteresisQueue q(0, 0, 4.0, 8.0, queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kTrendPeak);
  const std::vector<bool> expected{false, false, false, true,
                                   true,  true,  true,  true};
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<bool> marks;
    for (int i = 0; i < 8; ++i) {
      auto p = data_packet();
      q.enqueue(p, 0.0);
      marks.push_back(p.ce);
    }
    // The second excursion must mark exactly like the first: after the
    // full drain the trough re-anchored near zero, so the fresh K1
    // crossing passes the rising gate immediately.
    EXPECT_EQ(marks, expected) << "cycle " << cycle;
    EXPECT_TRUE(q.marking());
    deq(q, 0.0);  // occupancy 7 <= peak(8) - margin and < K2 -> stop
    EXPECT_FALSE(q.marking());
    while (deq(q, 0.0).has_value()) {
    }
    EXPECT_EQ(q.packets(), 0u);
  }
  EXPECT_EQ(q.marks(), 3u * 5u);
}

TEST(EcnHysteresis, DrainToStartReentryAfterFullDrainRepeatsTheCycle) {
  queue::EcnHysteresisQueue q(0, 0, 3.0, 6.0, queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kDrainToStart);
  const std::vector<bool> expected{false, false, true, true,
                                   true,  true,  true};
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<bool> marks;
    for (int i = 0; i < 7; ++i) {
      auto p = data_packet();
      q.enqueue(p, 0.0);
      marks.push_back(p.ce);
    }
    EXPECT_EQ(marks, expected) << "cycle " << cycle;
    EXPECT_TRUE(q.marking());
    while (deq(q, 0.0).has_value()) {
    }
    // Stopped at the downward K2 crossing during the drain.
    EXPECT_FALSE(q.marking());
    EXPECT_EQ(q.packets(), 0u);
  }
  EXPECT_EQ(q.marks(), 3u * 5u);
}

TEST(EcnHysteresis, HalfBandToggleParityCarriesAcrossFullDrain) {
  // Wide band [2, 100): every other in-band arrival is marked, and the
  // parity deliberately survives a full drain — across two 3-arrival
  // excursions exactly 3 of the 6 in-band packets are marked, not
  // ceil(3/2) twice (which a per-excursion reset would give).
  queue::EcnHysteresisQueue q(0, 0, 2.0, 100.0, queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kHalfBand);
  auto excursion = [&] {
    std::vector<bool> marks;
    for (int i = 0; i < 4; ++i) {
      auto p = data_packet();
      q.enqueue(p, 0.0);
      marks.push_back(p.ce);
    }
    while (deq(q, 0.0).has_value()) {
    }
    return marks;
  };
  // Occupancies after admit: 1 (below band), 2, 3, 4 (in band).
  EXPECT_EQ(excursion(), (std::vector<bool>{false, true, false, true}));
  // Second excursion continues the toggle where the first left off.
  EXPECT_EQ(excursion(), (std::vector<bool>{false, false, true, false}));
  EXPECT_EQ(q.marks(), 3u);
}

TEST(QueueDisc, CountersTrackEveryEvent) {
  queue::EcnThresholdQueue q(0, 2, 1.0, queue::ThresholdUnit::kPackets);
  auto p = data_packet();
  q.enqueue(p, 0.0);  // admitted, no mark (occupancy 0 < 1)
  q.enqueue(p, 0.0);  // admitted, marked
  q.enqueue(p, 0.0);  // dropped (limit 2)
  deq(q, 0.0);
  const sim::Counters c = q.counters();
  EXPECT_EQ(c.offered, 3u);
  EXPECT_EQ(c.enqueued, 2u);
  EXPECT_EQ(c.dequeued, 1u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.marked, 1u);
  EXPECT_EQ(c.bypassed, 0u);
}

// --- MarkingRule: the one description of a port's marking rule ----------

using queue::MarkingRule;

MarkingRule red_rule(void (*edit)(queue::RedConfig&)) {
  queue::RedConfig c;
  c.min_th = 30.0;
  c.max_th = 90.0;
  edit(c);
  return MarkingRule::aqm(c);
}

MarkingRule pie_rule(void (*edit)(queue::PieConfig&)) {
  queue::PieConfig c;
  edit(c);
  return MarkingRule::aqm(c);
}

MarkingRule codel_rule(void (*edit)(queue::CodelConfig&)) {
  queue::CodelConfig c;
  edit(c);
  return MarkingRule::aqm(c);
}

// The default of each kind prints the labels the atlas tables, the CLI
// and the gated bench rows have always used.
TEST(MarkingRule, DefaultLabelsKeepTheirSpelling) {
  EXPECT_EQ(MarkingRule::drop_tail().label(), "droptail");
  EXPECT_EQ(MarkingRule::dctcp(40.0).label(), "dctcp:40");
  EXPECT_EQ(MarkingRule::dt_dctcp(20.0, 40.0).label(), "dt:20,40");
  EXPECT_EQ(red_rule([](queue::RedConfig&) {}).label(), "red:30,90");
  EXPECT_EQ(MarkingRule::aqm(queue::PieConfig{}).label(), "pie:50us");
  EXPECT_EQ(MarkingRule::aqm(queue::CodelConfig{}).label(), "codel:50us");
}

// parse(label(r)) == r for every field of every kind moved off its
// default, one at a time and together, including values "%g" would
// round.
TEST(MarkingRule, LabelRoundTripsEveryField) {
  using queue::HysteresisVariant;
  using queue::MarkPoint;
  using queue::ThresholdUnit;
  const MarkingRule rules[] = {
      MarkingRule::drop_tail(),
      MarkingRule::dctcp(40.0),
      MarkingRule::dctcp(0.0),
      MarkingRule::dctcp(0.1 + 0.2),
      MarkingRule::dctcp(32 * 1024, ThresholdUnit::kBytes),
      MarkingRule::dctcp(40.0, ThresholdUnit::kPackets, MarkPoint::kDequeue),
      MarkingRule::dctcp(1234567.0, ThresholdUnit::kBytes,
                         MarkPoint::kDequeue),
      MarkingRule::dt_dctcp(30.0, 50.0),
      MarkingRule::dt_dctcp(40.0, 40.0),
      MarkingRule::dt_dctcp(28 * 1024, 34 * 1024, ThresholdUnit::kBytes),
      MarkingRule::dt_dctcp(15.0, 25.0, ThresholdUnit::kPackets,
                            HysteresisVariant::kDrainToStart),
      MarkingRule::dt_dctcp(15.0, 25.0, ThresholdUnit::kBytes,
                            HysteresisVariant::kHalfBand),
      red_rule([](queue::RedConfig& c) { c.min_th = 2.5; }),
      red_rule([](queue::RedConfig& c) { c.max_th = 1e6; }),
      red_rule([](queue::RedConfig& c) { c.max_p = 1.0 / 3.0; }),
      red_rule([](queue::RedConfig& c) { c.weight = 0.004; }),
      red_rule([](queue::RedConfig& c) { c.gentle = false; }),
      red_rule([](queue::RedConfig& c) { c.ecn_mode = false; }),
      red_rule([](queue::RedConfig& c) { c.seed = 18446744073709551615ull; }),
      red_rule([](queue::RedConfig& c) {
        c.max_p = 0.2;
        c.weight = 0.01;
        c.gentle = false;
        c.ecn_mode = false;
        c.seed = 7;
      }),
      pie_rule([](queue::PieConfig& c) { c.target_delay = 100e-6; }),
      pie_rule([](queue::PieConfig& c) { c.target_delay = 1e-4 / 3.0; }),
      pie_rule([](queue::PieConfig& c) { c.update_interval = 15e-6; }),
      pie_rule([](queue::PieConfig& c) { c.alpha = 125.0; }),
      pie_rule([](queue::PieConfig& c) { c.beta = 1250.0; }),
      pie_rule([](queue::PieConfig& c) { c.seed = 0; }),
      pie_rule([](queue::PieConfig& c) {
        c.target_delay = 20e-6;
        c.update_interval = 30e-6;
        c.alpha = 0.5;
        c.beta = 5.0;
        c.seed = 11;
      }),
      codel_rule([](queue::CodelConfig& c) { c.target = 5e-3; }),
      codel_rule([](queue::CodelConfig& c) { c.interval = 100e-3; }),
  };
  for (const auto& r : rules) {
    const auto parsed = MarkingRule::parse(r.label());
    ASSERT_TRUE(parsed.has_value()) << r.label();
    EXPECT_EQ(*parsed, r) << r.label();
  }
  // Distinct rules never share a label.
  for (const auto& a : rules) {
    for (const auto& b : rules) {
      if (!(a == b)) {
        EXPECT_NE(a.label(), b.label());
      }
    }
  }
}

TEST(MarkingRule, ParsesEveryKind) {
  using queue::ThresholdUnit;
  queue::RedConfig red;
  red.min_th = 30.0;
  red.max_th = 90.0;
  red.max_p = 0.2;
  red.weight = 0.004;
  red.gentle = false;
  red.ecn_mode = false;
  red.seed = 9;
  queue::PieConfig pie;
  pie.target_delay = 100e-6;
  pie.update_interval = 200e-6;
  pie.alpha = 125.0;
  pie.beta = 1250.0;
  pie.seed = 4;
  queue::CodelConfig codel;
  codel.target = 100e-6;
  codel.interval = 1e-3;
  const struct {
    const char* label;
    MarkingRule want;
  } cases[] = {
      {"droptail", MarkingRule::drop_tail()},
      {"dctcp:40", MarkingRule::dctcp(40.0)},
      {"dctcp:0", MarkingRule::dctcp(0.0)},
      {"dctcp:32768,unit=bytes",
       MarkingRule::dctcp(32768.0, ThresholdUnit::kBytes)},
      {"dctcp:40,at=dequeue",
       MarkingRule::dctcp(40.0, ThresholdUnit::kPackets,
                          queue::MarkPoint::kDequeue)},
      {"dctcp:40,unit=packets,at=arrival", MarkingRule::dctcp(40.0)},
      {"dt:30,50", MarkingRule::dt_dctcp(30.0, 50.0)},
      {"dt:40,40", MarkingRule::dt_dctcp(40.0, 40.0)},
      {"dt:1.5e3,3e3,unit=bytes",
       MarkingRule::dt_dctcp(1500.0, 3000.0, ThresholdUnit::kBytes)},
      {"dt:30,50,variant=half-band",
       MarkingRule::dt_dctcp(30.0, 50.0, ThresholdUnit::kPackets,
                             queue::HysteresisVariant::kHalfBand)},
      {"dt:30,50,variant=drain-to-start,unit=bytes",
       MarkingRule::dt_dctcp(30.0, 50.0, ThresholdUnit::kBytes,
                             queue::HysteresisVariant::kDrainToStart)},
      {"red:30,90,max_p=0.2,weight=0.004,gentle=0,ecn=0,seed=9",
       MarkingRule::aqm(red)},
      {"pie", MarkingRule::aqm(queue::PieConfig{})},
      {"pie:50us", MarkingRule::aqm(queue::PieConfig{})},
      {"pie:100us,update=200us,alpha=125,beta=1250,seed=4",
       MarkingRule::aqm(pie)},
      {"codel", MarkingRule::aqm(queue::CodelConfig{})},
      {"codel:100us,interval=1000us", MarkingRule::aqm(codel)},
  };
  for (const auto& c : cases) {
    const auto got = MarkingRule::parse(c.label);
    ASSERT_TRUE(got.has_value()) << c.label;
    EXPECT_EQ(*got, c.want) << c.label;
  }
}

TEST(MarkingRule, RejectsMalformedLabels) {
  const char* bad[] = {
      // unknown kind, missing or empty arguments
      "", "nonsense", "DCTCP:40", "dctcp", "dctcp:", "dctcp:,40",
      "dctcp:40,", "droptail:", "droptail:5", "dt:40", "red:30",
      // non-numeric, trailing, or non-finite text
      "dctcp:abc", "dctcp:40abc", "dctcp: 40", "dctcp:+40", "dctcp:nan",
      "dctcp:inf", "dt:30,5O",
      // out-of-range thresholds
      "dctcp:-5", "dt:50,30", "dt:-1,50", "red:90,30", "red:30,30",
      // wrong argument counts
      "dctcp:40,50", "dt:30,50,60", "pie:50us,100us", "codel:50us,500us",
      // keys: unknown, wrong kind, malformed, repeated, out of order
      "dctcp:40,unit=kb", "dctcp:40,unit=", "dctcp:40,=bytes",
      "dctcp:40,variant=half-band", "dt:30,50,at=dequeue",
      "dt:30,50,variant=loop", "dctcp:40,unit=bytes,unit=bytes",
      "dctcp:unit=bytes,40", "pie:50us,unit=bytes", "droptail,unit=bytes",
      "red:30,90,max_p=0", "red:30,90,max_p=1.5", "red:30,90,weight=2",
      "red:30,90,gentle=2", "red:30,90,ecn=yes", "red:30,90,seed=-1",
      "red:30,90,seed=1.5", "pie:50us,alpha=-1", "pie:50us,update=0us",
      "codel:interval=0us",
      // times need their unit and must be positive
      "pie:50", "pie:50ms", "pie:0us", "pie:-5us", "codel:us",
  };
  for (const char* label : bad) {
    EXPECT_FALSE(MarkingRule::parse(label).has_value()) << label;
  }
}

TEST(MarkingRule, QueueFactoryBuildsTheMatchingDiscipline) {
  const auto make = [](const MarkingRule& r) {
    return r.queue_factory(0, 100, 1e9)();
  };
  EXPECT_NE(dynamic_cast<queue::DropTailQueue*>(
                make(MarkingRule::drop_tail()).get()),
            nullptr);

  const auto t = make(MarkingRule::dctcp(32768.0, queue::ThresholdUnit::kBytes,
                                         queue::MarkPoint::kDequeue));
  const auto* tq = dynamic_cast<queue::EcnThresholdQueue*>(t.get());
  ASSERT_NE(tq, nullptr);
  EXPECT_EQ(tq->threshold(), 32768.0);
  EXPECT_EQ(tq->unit(), queue::ThresholdUnit::kBytes);
  EXPECT_EQ(tq->mark_point(), queue::MarkPoint::kDequeue);

  const auto h = make(MarkingRule::dt_dctcp(
      15.0, 25.0, queue::ThresholdUnit::kPackets,
      queue::HysteresisVariant::kHalfBand));
  const auto* hq = dynamic_cast<queue::EcnHysteresisQueue*>(h.get());
  ASSERT_NE(hq, nullptr);
  EXPECT_EQ(hq->start_threshold(), 15.0);
  EXPECT_EQ(hq->stop_threshold(), 25.0);
  EXPECT_EQ(hq->variant(), queue::HysteresisVariant::kHalfBand);

  EXPECT_NE(dynamic_cast<queue::RedQueue*>(
                make(red_rule([](queue::RedConfig&) {})).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<queue::PieQueue*>(
                make(MarkingRule::aqm(queue::PieConfig{})).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<queue::CodelQueue*>(
                make(MarkingRule::aqm(queue::CodelConfig{})).get()),
            nullptr);
}

}  // namespace
}  // namespace dtdctcp
