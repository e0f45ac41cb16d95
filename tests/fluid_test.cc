// Fluid model (Eq. 1-3) tests: operating point, conservation, limit
// cycles, and the DCTCP-vs-DT-DCTCP amplitude ordering.
#include <gtest/gtest.h>

#include <cmath>

#include "fluid/fluid_model.h"
#include "fluid/marking.h"

namespace dtdctcp {
namespace {

using fluid::FluidModel;
using fluid::FluidParams;
using fluid::FluidState;
using queue::MarkingRule;

FluidParams paper_params(double flows, double rtt = 1e-3) {
  FluidParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);  // 10 Gbps, 1.5 KB packets
  p.flows = flows;
  p.rtt = rtt;
  p.g = 1.0 / 16.0;
  return p;
}

TEST(FluidOperatingPoint, MatchesClosedForm) {
  FluidParams p = paper_params(10.0, 1e-4);
  const FluidState op = fluid::operating_point(p);
  EXPECT_NEAR(op.w, 1e-4 * p.capacity_pps / 10.0, 1e-9);  // W0 = R0*C/N
  EXPECT_NEAR(op.alpha, std::sqrt(2.0 / op.w), 1e-12);    // alpha0
  EXPECT_NEAR(op.q, 40.0, 1e-12);                         // midpoint of K
}

TEST(FluidOperatingPoint, HysteresisMidpoint) {
  FluidParams p = paper_params(10.0);
  p.marking = MarkingRule::dt_dctcp(30.0, 50.0);
  EXPECT_NEAR(fluid::operating_point(p).q, 40.0, 1e-12);
}

TEST(FluidModel, UnmarkedWindowGrowsOnePacketPerRtt) {
  // With the queue pinned far below threshold, p = 0 and dW/dt = 1/R0.
  FluidParams p = paper_params(10.0, 1e-3);
  p.marking = MarkingRule::dctcp(1e9);  // never marks
  FluidModel m(p);
  FluidState s;
  s.w = 10.0;
  s.alpha = 0.0;
  s.q = 0.0;
  m.set_state(s);
  m.run(10.0 * p.rtt);
  // 10 RTTs of pure additive increase: W = 10 + 10.
  EXPECT_NEAR(m.state().w, 20.0, 0.2);
}

TEST(FluidModel, QueueNeverNegative) {
  FluidParams p = paper_params(5.0, 1e-3);  // demand far below capacity
  FluidModel m(p);
  FluidState s;
  s.w = 1.0;
  s.alpha = 1.0;
  s.q = 10.0;
  m.set_state(s);
  stats::TimeSeries trace;
  m.run(0.2, &trace, p.rtt);
  for (const auto& sample : trace.samples()) {
    EXPECT_GE(sample.value, 0.0);
  }
}

TEST(FluidModel, AlphaStaysInUnitInterval) {
  FluidParams p = paper_params(50.0, 1e-3);
  FluidModel m(p);
  for (int i = 0; i < 20000; ++i) {
    m.step();
    EXPECT_GE(m.state().alpha, 0.0);
    EXPECT_LE(m.state().alpha, 1.0);
  }
}

TEST(FluidModel, DctcpDevelopsLimitCycle) {
  // In the oscillatory regime (millisecond RTT, see analysis tests) the
  // relay drives a sustained queue oscillation.
  FluidParams p = paper_params(80.0, 1e-3);
  FluidModel m(p);
  FluidState s = fluid::operating_point(p);
  s.q += 5.0;
  m.set_state(s);
  m.run(2000 * p.rtt);  // transient
  stats::TimeSeries trace;
  m.run(1000 * p.rtt, &trace, p.rtt / 10.0);
  const double amp = fluid::oscillation_amplitude(trace, 0.0);
  EXPECT_GT(amp, 20.0);  // sustained, large-amplitude cycle
}

TEST(FluidModel, DtDctcpCycleSmallerThanDctcp) {
  // The paper's headline: hysteresis marking shrinks the oscillation.
  for (double n : {40.0, 60.0, 80.0, 100.0}) {
    FluidParams pdc = paper_params(n, 1e-3);
    pdc.marking = MarkingRule::dctcp(40.0);
    FluidParams pdt = paper_params(n, 1e-3);
    pdt.marking = MarkingRule::dt_dctcp(30.0, 50.0);

    double amp[2];
    int i = 0;
    for (FluidParams* p : {&pdc, &pdt}) {
      FluidModel m(*p);
      FluidState s = fluid::operating_point(*p);
      s.q += 5.0;
      m.set_state(s);
      m.run(2000 * p->rtt);
      stats::TimeSeries trace;
      m.run(1000 * p->rtt, &trace, p->rtt / 10.0);
      amp[i++] = fluid::oscillation_amplitude(trace, 0.0);
    }
    EXPECT_LT(amp[1], amp[0]) << "DT amplitude should be smaller at N=" << n;
  }
}

TEST(FluidModel, FixedRttModelDivergesPastValidityBound) {
  // Documented property: with fixed R0 the model has no queue-delay
  // feedback, so for N > R0*C/2 (alpha0 > 1) the queue grows without
  // bound. This test pins the boundary so the benches can warn.
  FluidParams p = paper_params(60.0, 1e-4);  // bound is R0*C/2 = 41.7
  FluidModel m(p);
  m.run(0.5);
  EXPECT_GT(m.state().q, 10000.0);  // diverged
}

TEST(FluidModel, DynamicRttSelfLimits) {
  FluidParams p = paper_params(60.0, 1e-4);
  p.dynamic_rtt = true;
  FluidModel m(p);
  m.run(0.5);
  // Demand N*W/(R0 + q/C) = C at equilibrium -> q = N*W0'*... just
  // check it is bounded and sane (a few hundred packets).
  EXPECT_LT(m.state().q, 1000.0);
  EXPECT_GT(m.state().q, 10.0);
}

TEST(FluidModel, RecordsTraceAtRequestedResolution) {
  FluidParams p = paper_params(10.0, 1e-3);
  FluidModel m(p);
  stats::TimeSeries trace;
  m.run(0.01, &trace, 1e-3);
  // ~10 samples at 1 ms spacing over 10 ms.
  EXPECT_GE(trace.size(), 9u);
  EXPECT_LE(trace.size(), 12u);
}

TEST(OscillationAmplitude, HalfPeakToPeak) {
  stats::TimeSeries t;
  for (int i = 0; i < 1000; ++i) {
    t.add(i * 0.001, 40.0 + 10.0 * std::sin(i * 0.1));
  }
  EXPECT_NEAR(fluid::oscillation_amplitude(t, 0.0), 10.0, 0.1);
  // Restricting to a window after a "transient" works too.
  EXPECT_NEAR(fluid::oscillation_amplitude(t, 0.5), 10.0, 0.2);
}

TEST(OscillationAmplitude, EmptyTraceIsZero) {
  stats::TimeSeries t;
  EXPECT_EQ(fluid::oscillation_amplitude(t, 0.0), 0.0);
}

TEST(OscillationAmplitude, FromBeyondLastSampleIsZero) {
  stats::TimeSeries t;
  t.add(0.0, 40.0);
  t.add(1.0, 60.0);
  // `from` past the final sample leaves nothing to measure — must
  // return 0.0 rather than reading uninitialized extrema.
  EXPECT_EQ(fluid::oscillation_amplitude(t, 1.5), 0.0);
  // Exactly on the last sample: one point, zero amplitude.
  EXPECT_EQ(fluid::oscillation_amplitude(t, 1.0), 0.0);
}

TEST(OscillationAmplitude, SingleSampleIsZero) {
  stats::TimeSeries t;
  t.add(0.0, 123.0);
  EXPECT_EQ(fluid::oscillation_amplitude(t, 0.0), 0.0);
}

// --- MarkingAutomaton -----------------------------------------------

TEST(MarkingAutomaton, SingleThresholdIsMemorylessRelay) {
  fluid::MarkingAutomaton a(MarkingRule::dctcp(40.0));
  EXPECT_EQ(a.update(39.9), 0.0);
  EXPECT_EQ(a.update(40.0), 1.0);
  EXPECT_EQ(a.update(39.9), 0.0);
  EXPECT_EQ(a.update(100.0), 1.0);
}

TEST(MarkingAutomaton, HysteresisMarksK1UpToK2Down) {
  fluid::MarkingAutomaton a(MarkingRule::dt_dctcp(30.0, 50.0), 1.0);
  a.reset(0.0);
  EXPECT_EQ(a.update(20.0), 0.0);
  EXPECT_EQ(a.update(31.0), 1.0);  // crossed K1 upward
  EXPECT_EQ(a.update(45.0), 1.0);
  EXPECT_EQ(a.update(70.0), 1.0);  // above K2
  EXPECT_EQ(a.update(60.0), 1.0);  // falling but still above K2
  EXPECT_EQ(a.update(49.0), 0.0);  // fell below K2 -> released
  EXPECT_EQ(a.update(45.0), 0.0);
}

TEST(MarkingAutomaton, HysteresisSubK2PeakReleasesAtPeak) {
  fluid::MarkingAutomaton a(MarkingRule::dt_dctcp(30.0, 50.0), 1.0);
  a.reset(0.0);
  EXPECT_EQ(a.update(35.0), 1.0);  // crossed K1
  EXPECT_EQ(a.update(45.0), 1.0);  // rising
  EXPECT_EQ(a.update(43.0), 0.0);  // fell 2 > margin below peak, under K2
}

TEST(MarkingAutomaton, ResetClearsState) {
  fluid::MarkingAutomaton a(MarkingRule::dt_dctcp(30.0, 50.0), 1.0);
  a.update(60.0);
  EXPECT_TRUE(a.marking());
  a.reset(0.0);
  EXPECT_FALSE(a.marking());
  EXPECT_EQ(a.update(20.0), 0.0);
}

}  // namespace
}  // namespace dtdctcp
