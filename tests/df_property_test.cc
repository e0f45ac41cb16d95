// Property-style sweeps over the describing functions and the marking
// automata (paper Eq. 22 / 27 across the parameter space).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "analysis/describing_function.h"
#include "analysis/marking_model.h"
#include "fluid/marking.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "util/rng.h"

#include "queue_test_util.h"

namespace dtdctcp {
namespace {

using analysis::Complex;
using queue::MarkingRule;

// --- closed form vs numeric over a (K1, K2, X) grid --------------------

struct DfCase {
  double k1, k2, x;
};

class DfGrid : public ::testing::TestWithParam<DfCase> {};

TEST_P(DfGrid, NumericMatchesClosedForm) {
  const auto& c = GetParam();
  const MarkingRule spec = c.k1 == c.k2
                               ? MarkingRule::dctcp(c.k1)
                               : MarkingRule::dt_dctcp(c.k1, c.k2);
  const Complex cf = c.k1 == c.k2 ? analysis::df_dctcp(c.x, c.k1)
                                  : analysis::df_dtdctcp(c.x, c.k1, c.k2);
  const Complex nu = analysis::numeric_df(spec, c.x, 0.0);
  EXPECT_NEAR(nu.real(), cf.real(), 5e-3 * std::abs(cf) + 1e-10);
  EXPECT_NEAR(nu.imag(), cf.imag(), 5e-3 * std::abs(cf) + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DfGrid,
    ::testing::Values(DfCase{40, 40, 45}, DfCase{40, 40, 57},
                      DfCase{40, 40, 90}, DfCase{40, 40, 400},
                      DfCase{30, 50, 55}, DfCase{30, 50, 75},
                      DfCase{30, 50, 150}, DfCase{30, 50, 600},
                      DfCase{10, 20, 25}, DfCase{10, 20, 80},
                      DfCase{35, 45, 50}, DfCase{35, 45, 200},
                      DfCase{5, 90, 95}, DfCase{5, 90, 300}),
    [](const ::testing::TestParamInfo<DfCase>& info) {
      const auto& c = info.param;
      return "K1_" + std::to_string(int(c.k1)) + "_K2_" +
             std::to_string(int(c.k2)) + "_X_" + std::to_string(int(c.x));
    });

// --- analytic properties ------------------------------------------------

TEST(DfProperties, RelayDfVanishesAtValidityBoundaryAndInfinity) {
  // At X = K the marked arc collapses; as X -> inf the pulse's relative
  // weight vanishes.
  EXPECT_NEAR(analysis::df_dctcp(40.0, 40.0).real(), 0.0, 1e-12);
  EXPECT_LT(analysis::df_dctcp(1e6, 40.0).real(), 1e-6);
}

TEST(DfProperties, RelayDfPeaksAtKSqrt2) {
  const double k = 40.0;
  const double peak_x = k * std::sqrt(2.0);
  const double at_peak = analysis::df_dctcp(peak_x, k).real();
  EXPECT_GT(at_peak, analysis::df_dctcp(peak_x * 0.9, k).real());
  EXPECT_GT(at_peak, analysis::df_dctcp(peak_x * 1.1, k).real());
  // Peak value is 1/(pi K).
  EXPECT_NEAR(at_peak, 1.0 / (M_PI * k), 1e-12);
}

TEST(DfProperties, HysteresisImaginaryPartDecaysAsXSquared) {
  // Im N_dt = (K2-K1)/(pi X^2): doubling X quarters it.
  const double i1 = analysis::df_dtdctcp(100.0, 30.0, 50.0).imag();
  const double i2 = analysis::df_dtdctcp(200.0, 30.0, 50.0).imag();
  EXPECT_NEAR(i1 / i2, 4.0, 1e-9);
}

TEST(DfProperties, WiderLoopMoreLead) {
  // At fixed X and midpoint, widening K2-K1 increases the phase lead.
  const double x = 100.0;
  const double lead_narrow =
      std::arg(analysis::df_dtdctcp(x, 38.0, 42.0));
  const double lead_wide = std::arg(analysis::df_dtdctcp(x, 25.0, 55.0));
  EXPECT_GT(lead_wide, lead_narrow);
  EXPECT_GT(lead_narrow, 0.0);
}

TEST(DfProperties, NegRecipConsistentWithRelativeDf) {
  const MarkingRule spec = MarkingRule::dt_dctcp(30.0, 50.0);
  for (double x : {55.0, 80.0, 200.0}) {
    const auto model = analysis::MarkingModel::make(spec, {});
    const Complex prod = model.relative_df(x) * model.neg_recip(x);
    EXPECT_NEAR(prod.real(), -1.0, 1e-12);
    EXPECT_NEAR(prod.imag(), 0.0, 1e-12);
  }
}

TEST(DfProperties, NumericDfWithLargeBiasSeesNoMarking) {
  // Sine entirely below K1: zero output, zero DF.
  const Complex n =
      analysis::numeric_df(MarkingRule::dctcp(40.0), 10.0, 0.0);
  EXPECT_NEAR(std::abs(n), 0.0, 1e-12);
}

TEST(DfProperties, NumericDfWithPositiveBiasMarksLongerArc) {
  // Raising the bias pushes more of the sine above K: larger fundamental
  // in-phase component up to saturation.
  const MarkingRule spec = MarkingRule::dctcp(40.0);
  const double b0 = analysis::numeric_df(spec, 50.0, 0.0).real();
  const double b1 = analysis::numeric_df(spec, 50.0, 20.0).real();
  EXPECT_GT(b0, 0.0);
  EXPECT_GT(b1, 0.0);
  // With bias 20 the relay spends more of the cycle ON; the fundamental
  // coefficient differs from the centered case.
  EXPECT_NE(b0, b1);
}

// --- automata agreement: fluid vs queue implementations ----------------

TEST(AutomataAgreement, FluidAndQueueTrendPeakAgreeOnRandomWalk) {
  // The fluid MarkingAutomaton and the packet queue's kTrendPeak variant
  // implement the same machine; drive both with one occupancy walk.
  Rng rng(31337);
  fluid::MarkingAutomaton fluid_a(MarkingRule::dt_dctcp(30.0, 50.0));
  queue::EcnHysteresisQueue queue_a(0, 0, 30.0, 50.0,
                                    queue::ThresholdUnit::kPackets);
  // Mirror the queue by enqueue/dequeue of unit packets; feed the fluid
  // automaton the resulting occupancy.
  for (int i = 0; i < 50000; ++i) {
    const bool up = rng.bernoulli(0.5 + 0.1 * std::sin(i * 0.001));
    if (up) {
      sim::Packet p;
      p.size_bytes = 1500;
      p.ect = true;
      queue_a.enqueue(p, 0.0);
    } else {
      deq(queue_a, 0.0);
    }
    fluid_a.update(static_cast<double>(queue_a.packets()));
    ASSERT_EQ(fluid_a.marking(), queue_a.marking()) << "step " << i;
  }
}

// --- K1 == K2 degenerate hysteresis -------------------------------------
// The atlas sweeps (K1, K2) grids that include the diagonal, so the
// degenerate loop must collapse to the relay at every layer: closed-form
// DF, numeric quadrature, fluid automaton, and packet queue.

TEST(DegenerateHysteresis, NumericDfCollapsesToRelayClosedForm) {
  // numeric_df drives the hysteresis *automaton*, not the closed form,
  // so this checks the state machine's degenerate case too.
  const MarkingRule spec = MarkingRule::dt_dctcp(40.0, 40.0);
  for (double x : {45.0, 57.0, 90.0, 400.0}) {
    const Complex cf = analysis::df_dctcp(x, 40.0);
    const Complex nu = analysis::numeric_df(spec, x, 0.0);
    EXPECT_NEAR(nu.real(), cf.real(), 5e-3 * std::abs(cf) + 1e-10) << x;
    EXPECT_NEAR(nu.imag(), 0.0, 5e-3 * std::abs(cf) + 1e-10) << x;
  }
}

TEST(DegenerateHysteresis, AutomatonEqualsSingleThresholdOnRandomWalk) {
  const double k = 40.0;
  fluid::MarkingAutomaton hyst(MarkingRule::dt_dctcp(k, k));
  fluid::MarkingAutomaton relay(MarkingRule::dctcp(k));
  Rng rng(20260809);
  double q = 20.0;
  for (int i = 0; i < 50000; ++i) {
    q = std::max(0.0, q + (rng.bernoulli(0.5) ? 1.5 : -1.5) +
                          8.0 * std::sin(i * 0.002));
    ASSERT_EQ(hyst.update(q), relay.update(q)) << "step " << i << " q=" << q;
  }
}

TEST(DegenerateHysteresis, QueueMatchesSingleThresholdShiftedByOne) {
  // Pinned convention: EcnHysteresisQueue decides in after_admit against
  // the occupancy INCLUDING the arriving packet, while EcnThresholdQueue
  // decides in before_admit against the occupancy WITHOUT it. With
  // K1 == K2 == K the degenerate loop therefore marks exactly the
  // packets a single threshold at K - 1 marks. This asymmetry predates
  // the atlas and is load-bearing for the byte-identical fig10/fig11
  // kernels — pin it, do not "fix" it.
  const double k = 5.0;
  queue::EcnHysteresisQueue hyst(0, 0, k, k, queue::ThresholdUnit::kPackets);
  queue::EcnThresholdQueue relay(0, 0, k - 1.0,
                                 queue::ThresholdUnit::kPackets);
  Rng rng(4242);
  auto fresh = [] {
    sim::Packet p;
    p.size_bytes = 1500;
    p.ect = true;
    return p;
  };
  for (int i = 0; i < 20000; ++i) {
    if (rng.bernoulli(0.5 + 0.2 * std::sin(i * 0.01))) {
      auto a = fresh();
      auto b = fresh();
      hyst.enqueue(a, 0.0);
      relay.enqueue(b, 0.0);
      ASSERT_EQ(a.ce, b.ce) << "step " << i << " occ=" << hyst.packets();
    } else {
      deq(hyst, 0.0);
      deq(relay, 0.0);
    }
    ASSERT_EQ(hyst.packets(), relay.packets());
  }
  EXPECT_GT(hyst.marks(), 0u);
  EXPECT_EQ(hyst.marks(), relay.marks());
}

// --- half-band variant properties ---------------------------------------

TEST(HalfBand, MarksRoughlyHalfInsideBandAllAboveK2) {
  queue::EcnHysteresisQueue q(0, 0, 30.0, 50.0,
                              queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kHalfBand);
  // Fill to 39 (inside band), then alternate enqueue/dequeue and count.
  // A fresh packet per arrival: enqueue may set CE on its argument.
  auto fresh = [] {
    sim::Packet p;
    p.size_bytes = 1500;
    p.ect = true;
    return p;
  };
  for (int i = 0; i < 39; ++i) {
    auto p = fresh();
    q.enqueue(p, 0.0);
  }
  int marked = 0;
  for (int i = 0; i < 1000; ++i) {
    auto x = fresh();
    q.enqueue(x, 0.0);
    deq(q, 0.0);
    if (x.ce) ++marked;
  }
  EXPECT_NEAR(marked, 500, 10);

  // Push above K2: every ECT arrival marked.
  for (int i = 0; i < 20; ++i) {
    auto p = fresh();
    q.enqueue(p, 0.0);  // occupancy grows to ~59
  }
  for (int i = 0; i < 50; ++i) {
    auto x = fresh();
    q.enqueue(x, 0.0);
    deq(q, 0.0);
    EXPECT_TRUE(x.ce);
  }
}

TEST(HalfBand, NoMarkingBelowK1) {
  queue::EcnHysteresisQueue q(0, 0, 30.0, 50.0,
                              queue::ThresholdUnit::kPackets,
                              queue::HysteresisVariant::kHalfBand);
  sim::Packet p;
  p.size_bytes = 1500;
  p.ect = true;
  for (int i = 0; i < 25; ++i) {
    sim::Packet x = p;
    q.enqueue(x, 0.0);
    EXPECT_FALSE(x.ce);
  }
}

}  // namespace
}  // namespace dtdctcp
