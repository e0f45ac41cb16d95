// Describing-function and Nyquist machinery tests (paper §IV-V), plus
// the stability-atlas layer built on them: onset bisection, margins
// edge cases, locus-sampler boundaries, and the packet-level
// cross-validation envelope.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <sstream>

#include "analysis/describing_function.h"
#include "analysis/marking_model.h"
#include "analysis/margins.h"
#include "analysis/nyquist.h"
#include "analysis/stability_atlas.h"
#include "analysis/transfer_function.h"
#include "core/oscillation_probe.h"

namespace dtdctcp {
namespace {

using analysis::Complex;
using analysis::PlantParams;
using queue::MarkingRule;

PlantParams paper_plant(double flows, double rtt) {
  PlantParams p;
  p.capacity_pps = 1e10 / (8.0 * 1500.0);
  p.flows = flows;
  p.rtt = rtt;
  p.g = 1.0 / 16.0;
  return p;
}

// --- transfer function -------------------------------------------------

TEST(TransferFunction, DcGainMatchesHandDerivation) {
  // G(0) = sqrt(C/(2 N R0)) * (2g/R0) * (N/R0) / ((g/R0)(N/(R0^2 C))(1/R0))
  //      = sqrt(C/(2 N R0)) * 2 * R0^2 * C / ... algebra gives
  //        2 * C * R0^2 * sqrt(C / (2 N R0)) ... verified numerically.
  PlantParams p = paper_plant(60.0, 1e-4);
  const Complex g0 = analysis::plant_response(p, 1e-6);
  const double expected = std::sqrt(p.capacity_pps / (2.0 * p.flows * p.rtt)) *
                          2.0 * p.rtt * p.rtt * p.capacity_pps;
  EXPECT_NEAR(g0.real(), expected, expected * 1e-3);
  EXPECT_NEAR(g0.imag(), 0.0, expected * 1e-3);
}

TEST(TransferFunction, MagnitudeDecaysAtHighFrequency) {
  PlantParams p = paper_plant(60.0, 1e-4);
  const double m1 = std::abs(analysis::plant_response(p, 1e3));
  const double m2 = std::abs(analysis::plant_response(p, 1e5));
  const double m3 = std::abs(analysis::plant_response(p, 1e7));
  EXPECT_GT(m1, m2);  // two net poles beyond the zero -> low pass
  EXPECT_GT(m2, m3);
}

TEST(TransferFunction, DelayOnlyChangesPhase) {
  PlantParams p = paper_plant(60.0, 1e-4);
  const double w = 5e3;
  const Complex with_delay = analysis::plant_response(p, w);
  const Complex rational = analysis::plant_rational(p, Complex(0.0, w));
  EXPECT_NEAR(std::abs(with_delay), std::abs(rational), 1e-9 * std::abs(rational));
  EXPECT_NEAR(std::arg(with_delay), std::arg(rational) - w * p.rtt, 1e-9);
}

TEST(TransferFunction, PhaseCrossingIsAtMinus180Degrees) {
  PlantParams p = paper_plant(60.0, 1e-3);
  double w[4];
  const int n = analysis::phase_crossings(p, 1.0, 1e6, w, 4);
  ASSERT_GE(n, 1);
  const Complex g = analysis::plant_response(p, w[0]);
  EXPECT_NEAR(g.imag(), 0.0, 1e-6 * std::abs(g));
  EXPECT_LT(g.real(), 0.0);
}

// --- describing functions ----------------------------------------------

TEST(DescribingFunction, RelayMatchesPaperEq22) {
  // N_dc(X) = 2/(pi X) sqrt(1 - (K/X)^2), purely real.
  const double k = 40.0;
  for (double x : {40.0, 50.0, 56.57, 100.0, 1000.0}) {
    const Complex n = analysis::df_dctcp(x, k);
    const double expected =
        2.0 / (M_PI * x) * std::sqrt(1.0 - (k / x) * (k / x));
    EXPECT_NEAR(n.real(), expected, 1e-12);
    EXPECT_EQ(n.imag(), 0.0);
  }
}

TEST(DescribingFunction, HysteresisMatchesPaperEq27) {
  const double k1 = 30.0;
  const double k2 = 50.0;
  for (double x : {50.0, 60.0, 80.0, 200.0}) {
    const Complex n = analysis::df_dtdctcp(x, k1, k2);
    const double b1 = (std::sqrt(1.0 - (k1 / x) * (k1 / x)) +
                       std::sqrt(1.0 - (k2 / x) * (k2 / x))) /
                      M_PI;
    const double a1 = (k2 - k1) / (M_PI * x);
    EXPECT_NEAR(n.real(), b1 / x, 1e-12);
    EXPECT_NEAR(n.imag(), a1 / x, 1e-12);
  }
}

TEST(DescribingFunction, HysteresisHasPositiveImaginaryPart) {
  // The phase lead that the paper's stability argument rests on.
  for (double x : {51.0, 70.0, 150.0}) {
    EXPECT_GT(analysis::df_dtdctcp(x, 30.0, 50.0).imag(), 0.0);
  }
}

TEST(DescribingFunction, HysteresisDegeneratesToRelayWhenK1EqualsK2) {
  for (double x : {45.0, 60.0, 120.0}) {
    const Complex dt = analysis::df_dtdctcp(x, 40.0, 40.0);
    const Complex dc = analysis::df_dctcp(x, 40.0);
    EXPECT_NEAR(dt.real(), dc.real(), 1e-12);
    EXPECT_NEAR(dt.imag(), 0.0, 1e-12);
  }
}

TEST(DescribingFunction, NumericQuadratureMatchesClosedFormRelay) {
  const MarkingRule spec = MarkingRule::dctcp(40.0);
  for (double x : {45.0, 60.0, 100.0, 400.0}) {
    const Complex cf = analysis::df_dctcp(x, 40.0);
    const Complex nu = analysis::numeric_df(spec, x, 0.0);
    EXPECT_NEAR(nu.real(), cf.real(), 2e-4 * cf.real() + 1e-9);
    EXPECT_NEAR(nu.imag(), 0.0, 1e-6);
  }
}

TEST(DescribingFunction, NumericQuadratureMatchesClosedFormHysteresis) {
  const MarkingRule spec = MarkingRule::dt_dctcp(30.0, 50.0);
  for (double x : {55.0, 60.0, 80.0, 120.0, 400.0}) {
    const Complex cf = analysis::df_dtdctcp(x, 30.0, 50.0);
    const Complex nu = analysis::numeric_df(spec, x, 0.0);
    EXPECT_NEAR(nu.real(), cf.real(), 2e-3 * std::abs(cf) + 1e-9) << x;
    EXPECT_NEAR(nu.imag(), cf.imag(), 2e-3 * std::abs(cf) + 1e-9) << x;
  }
}

TEST(DescribingFunction, RelativeDfUsesCharacteristicGain) {
  // N0(X) = N(X)/K0 with K0 = 1/K (relay) and 1/K2 (hysteresis).
  const MarkingRule dc = MarkingRule::dctcp(40.0);
  const MarkingRule dt = MarkingRule::dt_dctcp(30.0, 50.0);
  EXPECT_DOUBLE_EQ(analysis::MarkingModel::make(dc, {}).k0, 1.0 / 40.0);
  EXPECT_DOUBLE_EQ(analysis::MarkingModel::make(dt, {}).k0, 1.0 / 50.0);
  const double x = 80.0;
  const Complex n0 = analysis::MarkingModel::make(dc, {}).relative_df(x);
  EXPECT_NEAR(n0.real(), 40.0 * analysis::df_dctcp(x, 40.0).real(), 1e-12);
}

TEST(DescribingFunction, MaxNegRecipRelayIsMinusPiAtKSqrt2) {
  // The paper's stability boundary: max(-1/N0dc) = -pi at X = K*sqrt(2).
  double arg_x = 0.0;
  const auto relay = analysis::MarkingModel::make(MarkingRule::dctcp(40.0), {});
  const double m = analysis::max_real_of_locus(
      [&](double x) { return relay.neg_recip(x); }, 40.0001, 4000.0, &arg_x);
  EXPECT_NEAR(m, -M_PI, 1e-6);
  EXPECT_NEAR(arg_x, 40.0 * std::sqrt(2.0), 0.05);
}

// --- Nyquist / limit cycles ---------------------------------------------

TEST(Nyquist, PaperLiteralParametersPredictStability) {
  // With the paper's literal configuration (RTT = 100 us) the
  // characteristic equation has no solution for any N up to 200: the
  // plant locus crosses the real axis well right of -pi. Documented as
  // a deviation from the paper's Fig. 9 in EXPERIMENTS.md.
  PlantParams p = paper_plant(60.0, 1e-4);
  const auto r = analysis::analyze(p, MarkingRule::dctcp(40.0));
  EXPECT_FALSE(r.intersects);
  EXPECT_GT(r.crossing_real, -M_PI);
  EXPECT_LT(r.crossing_real, 0.0);
}

TEST(Nyquist, MillisecondRttRegimeHasLimitCycles) {
  PlantParams p = paper_plant(80.0, 1e-3);
  const auto r = analysis::analyze(p, MarkingRule::dctcp(40.0));
  ASSERT_TRUE(r.intersects);
  // The paper's Nyquist reading: two intersections, the small-amplitude
  // cycle unstable and the large one sustained.
  ASSERT_EQ(r.cycles.size(), 2u);
  EXPECT_FALSE(r.cycles[0].stable);
  EXPECT_TRUE(r.cycles[1].stable);
  EXPECT_LT(r.cycles[0].amplitude, r.cycles[1].amplitude);
  EXPECT_GE(r.cycles[0].amplitude, 40.0);  // DF validity: X >= K
  for (const auto& c : r.cycles) {
    EXPECT_LT(c.residual, 1e-8);
    EXPECT_GT(c.omega, 0.0);
  }
}

TEST(Nyquist, RootsSatisfyCharacteristicEquation) {
  PlantParams p = paper_plant(80.0, 1e-3);
  const MarkingRule spec = MarkingRule::dctcp(40.0);
  const auto r = analysis::analyze(p, spec);
  ASSERT_TRUE(r.intersects);
  for (const auto& c : r.cycles) {
    const Complex lhs = analysis::MarkingModel::make(spec, {}).k0 *
                        analysis::plant_response(p, c.omega);
    const Complex rhs =
        analysis::MarkingModel::make(spec, {}).neg_recip(c.amplitude);
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8);
  }
}

TEST(Nyquist, CriticalFlowsOrderingDcBeforeDt) {
  // Theorem ordering (paper §V-D): DT-DCTCP's locus intersects at a
  // larger N than DCTCP's. (The paper reports 60 vs 70 for its own
  // Matlab evaluation; the ordering is the invariant.)
  PlantParams p = paper_plant(1.0, 1e-3);
  const int ndc =
      analysis::critical_flows(p, MarkingRule::dctcp(40.0), 5, 200);
  const int ndt = analysis::critical_flows(
      p, MarkingRule::dt_dctcp(30.0, 50.0), 5, 200);
  ASSERT_GT(ndc, 0);
  ASSERT_GT(ndt, 0);
  EXPECT_LT(ndc, ndt);
}

TEST(Nyquist, WiderHysteresisRaisesCriticalFlows) {
  // The stabilizing margin grows with the loop width at fixed midpoint.
  PlantParams p = paper_plant(1.0, 1e-3);
  const int narrow = analysis::critical_flows(
      p, MarkingRule::dt_dctcp(35.0, 45.0), 5, 300);
  const int wide = analysis::critical_flows(
      p, MarkingRule::dt_dctcp(25.0, 55.0), 5, 300);
  ASSERT_GT(narrow, 0);
  // Wider loop: either no instability in range (-1) or a larger N.
  if (wide > 0) {
    EXPECT_GT(wide, narrow);
  }
}

TEST(Nyquist, BisectionMatchesLinearScanOnFig9OperatingPoint) {
  // The bisection that replaced the linear scan must return the exact
  // onset and its bracketing stable N at the paper's Fig. 9 operating
  // point (10 Gbps, RTT 1 ms), for both the relay and the hysteresis.
  PlantParams p = paper_plant(1.0, 1e-3);
  for (const MarkingRule& spec :
       {MarkingRule::dctcp(40.0), MarkingRule::dt_dctcp(30.0, 50.0)}) {
    int first = -1;
    for (int n = 5; n <= 200; ++n) {
      p.flows = static_cast<double>(n);
      if (analysis::analyze(p, spec).intersects) {
        first = n;
        break;
      }
    }
    ASSERT_GT(first, 5);
    const auto br = analysis::critical_flows_bracket(p, spec, 5, 200);
    EXPECT_EQ(br.critical_n, first);
    EXPECT_EQ(br.stable_n, first - 1);
    EXPECT_EQ(analysis::critical_flows(p, spec, 5, 200), first);
  }
}

TEST(Nyquist, BisectionBoundaryCases) {
  PlantParams p = paper_plant(1.0, 1e-3);
  const MarkingRule spec = MarkingRule::dctcp(40.0);
  // Whole range stable: no onset, the top of the range is the bracket.
  auto br = analysis::critical_flows_bracket(p, spec, 5, 20);
  EXPECT_EQ(br.critical_n, -1);
  EXPECT_EQ(br.stable_n, 20);
  // Already cycling at the bottom: onset reported there, no stable side.
  br = analysis::critical_flows_bracket(p, spec, 100, 200);
  EXPECT_EQ(br.critical_n, 100);
  EXPECT_EQ(br.stable_n, -1);
  // Inverted range: empty result.
  br = analysis::critical_flows_bracket(p, spec, 50, 40);
  EXPECT_EQ(br.critical_n, -1);
  EXPECT_EQ(br.stable_n, -1);
}

TEST(Nyquist, MinQueueAmplitudeFiltersSubPacketRoots) {
  // A cycling relay cell keeps its (tens-of-packets) cycle under the
  // atlas's one-packet floor, and an absurdly large floor reclassifies
  // it as stable — the knob only ever discards roots.
  PlantParams p = paper_plant(80.0, 1e-3);
  const MarkingRule spec = MarkingRule::dctcp(40.0);
  analysis::SolverOptions opt;
  opt.min_queue_amplitude = 1.0;
  const auto r = analysis::analyze(p, spec, opt);
  ASSERT_TRUE(r.intersects);
  for (const auto& c : r.cycles) EXPECT_GE(c.amplitude, 1.0);
  opt.min_queue_amplitude = 1e6;
  EXPECT_FALSE(analysis::analyze(p, spec, opt).intersects);
}

// --- stability margins: atlas-grid edge cases ---------------------------

TEST(Margins, NoPhaseCrossingInBandIsNanFree) {
  // A band below the plant's first -180 deg crossing: the gain margin
  // falls back to its "effectively infinite" default, everything finite.
  PlantParams p = paper_plant(60.0, 1e-4);
  const auto m =
      analysis::stability_margins(p, MarkingRule::dctcp(40.0), 1.0, 10.0);
  EXPECT_TRUE(std::isfinite(m.gain_margin_db));
  EXPECT_TRUE(std::isfinite(m.phase_margin_deg));
  EXPECT_DOUBLE_EQ(m.gain_margin, 1e9);
  EXPECT_DOUBLE_EQ(m.gain_margin_db, 180.0);
  EXPECT_EQ(m.phase_crossing_w, 0.0);
}

TEST(Margins, DegenerateBandReturnsDefaults) {
  PlantParams p = paper_plant(60.0, 1e-3);
  for (const auto& [lo, hi] : {std::pair{1e3, 1e3}, std::pair{1e4, 1e3},
                               std::pair{0.0, 1e3}}) {
    const auto m =
        analysis::stability_margins(p, MarkingRule::dctcp(40.0), lo, hi);
    EXPECT_TRUE(std::isfinite(m.gain_margin_db)) << lo << " " << hi;
    EXPECT_DOUBLE_EQ(m.gain_margin, 1e9);
    EXPECT_DOUBLE_EQ(m.phase_margin_deg, 0.0);
  }
}

TEST(Margins, MagnitudeNeverCriticalGivesZeroPhaseMargin) {
  // With very many flows the loop gain is tiny everywhere: |K0 G| never
  // reaches the critical level, so the phase margin reports 0 (not NaN)
  // while the gain margin stays large and finite.
  PlantParams p = paper_plant(1e5, 1e-4);
  const auto m =
      analysis::stability_margins(p, MarkingRule::dctcp(40.0));
  EXPECT_TRUE(std::isfinite(m.gain_margin_db));
  EXPECT_DOUBLE_EQ(m.phase_margin_deg, 0.0);
  EXPECT_GT(m.gain_margin, 1.0);
}

TEST(Nyquist, LocusSamplersProduceOrderedSeries) {
  PlantParams p = paper_plant(60.0, 1e-3);
  const MarkingRule spec = MarkingRule::dt_dctcp(30.0, 50.0);
  const auto plant = analysis::sample_plant_locus(p, spec, 10.0, 1e5, 64);
  ASSERT_EQ(plant.size(), 64u);
  EXPECT_LT(plant.front().first, plant.back().first);
  const auto df = analysis::sample_df_locus(spec, 100.0, 64);
  ASSERT_EQ(df.size(), 64u);
  // -1/N0dt lies in the upper half plane (phase lead).
  for (const auto& [x, z] : df) {
    EXPECT_GE(z.imag(), -1e-12) << "at X=" << x;
    EXPECT_LT(z.real(), 0.0);
  }
}

// --- locus sampler boundary behavior ------------------------------------

TEST(Nyquist, LocusSamplersHandleDegenerateCounts) {
  PlantParams p = paper_plant(60.0, 1e-3);
  const MarkingRule spec = MarkingRule::dctcp(40.0);
  EXPECT_TRUE(analysis::sample_plant_locus(p, spec, 1.0, 1e5, 0).empty());
  EXPECT_TRUE(analysis::sample_plant_locus(p, spec, 1.0, 1e5, -3).empty());
  EXPECT_TRUE(analysis::sample_df_locus(spec, 100.0, 0).empty());
  const auto one = analysis::sample_plant_locus(p, spec, 7.0, 1e5, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].first, 7.0);  // count == 1 samples w_lo
  EXPECT_TRUE(std::isfinite(std::abs(one[0].second)));
}

TEST(Nyquist, DfLocusAtValidityBoundIsFinite) {
  // x_max_factor <= 1 clamps the walk to a single amplitude just above
  // the validity bound — every sample must stay finite (the bound
  // itself would divide by zero in -1/N).
  for (const MarkingRule& spec :
       {MarkingRule::dctcp(40.0), MarkingRule::dt_dctcp(20.0, 40.0),
        MarkingRule::aqm(queue::RedConfig{.min_th = 20.0, .max_th = 40.0})}) {
    for (double factor : {1.0, 0.5}) {
      const auto locus = analysis::sample_df_locus(spec, factor, 8);
      ASSERT_EQ(locus.size(), 8u);
      for (const auto& [x, z] : locus) {
        EXPECT_TRUE(std::isfinite(z.real())) << x;
        EXPECT_TRUE(std::isfinite(z.imag())) << x;
        EXPECT_GT(x, 0.0);
      }
    }
  }
}

TEST(Nyquist, PlantLocusFiniteOverNineFrequencyDecades) {
  PlantParams p = paper_plant(60.0, 1e-3);
  for (const MarkingRule& spec :
       {MarkingRule::dctcp(40.0),
        MarkingRule::aqm(queue::RedConfig{.min_th = 20.0, .max_th = 40.0}),
        MarkingRule::aqm(queue::PieConfig{})}) {
    const auto locus =
        analysis::sample_plant_locus(p, spec, 1e-2, 1e7, 128);
    ASSERT_EQ(locus.size(), 128u);
    for (const auto& [w, z] : locus) {
      EXPECT_TRUE(std::isfinite(z.real())) << w;
      EXPECT_TRUE(std::isfinite(z.imag())) << w;
    }
  }
}

// --- stability atlas ----------------------------------------------------

analysis::AtlasConfig small_atlas() {
  analysis::AtlasConfig cfg;
  cfg.markings = {queue::MarkingRule::dctcp(40.0),
                  queue::MarkingRule::dt_dctcp(20.0, 40.0)};
  cfg.rtts = {100e-6, 1e-3};
  cfg.n_lo = 5;
  cfg.n_hi = 128;
  return cfg;
}

TEST(StabilityAtlas, GridShapeAndOnsetOrdering) {
  const auto atlas = analysis::run_stability_atlas(small_atlas());
  ASSERT_EQ(atlas.cells.size(), 4u);
  // Row-major: (dctcp, 100us), (dctcp, 1ms), (dt, 100us), (dt, 1ms).
  EXPECT_EQ(atlas.cells[0].onset.critical_n, -1);  // paper: stable
  EXPECT_EQ(atlas.cells[2].onset.critical_n, -1);
  const int relay_onset = atlas.cells[1].onset.critical_n;
  const int hyst_onset = atlas.cells[3].onset.critical_n;
  ASSERT_GT(relay_onset, 0);
  ASSERT_GT(hyst_onset, 0);
  // Theorem ordering: the hysteresis cycles at a larger N.
  EXPECT_LT(relay_onset, hyst_onset);
  // The cycling cells carry a cycle; the stable cells do not.
  EXPECT_TRUE(atlas.cells[1].intersects);
  EXPECT_GT(atlas.cells[1].amplitude_pkts, 1.0);
  EXPECT_GT(atlas.cells[1].frequency_hz, 0.0);
  EXPECT_FALSE(atlas.cells[0].intersects);
}

TEST(StabilityAtlas, SerialAndParallelRunsAreByteIdentical) {
  const auto cfg = small_atlas();
  runner::RunnerOptions serial;
  serial.jobs = 1;
  runner::RunnerOptions parallel;
  parallel.jobs = 4;
  const auto a = analysis::run_stability_atlas(cfg, serial);
  const auto b = analysis::run_stability_atlas(cfg, parallel);
  std::ostringstream csv_a, csv_b;
  analysis::write_atlas_csv(a, csv_a);
  analysis::write_atlas_csv(b, csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_GT(csv_a.str().size(), 100u);
}

TEST(StabilityAtlas, ObservableAmplitudeClipsToQueueRange) {
  analysis::AtlasCell cell;
  cell.intersects = true;
  cell.operating_queue = 40.0;
  cell.amplitude_pkts = 58.0;
  cell.buffer_pkts = 250.0;
  // Swing [40-58, 40+58] floors at 0: (98 - 0) / 2.
  EXPECT_DOUBLE_EQ(analysis::observable_amplitude(cell), 49.0);
  cell.amplitude_pkts = 20.0;  // unclipped: passes through
  EXPECT_DOUBLE_EQ(analysis::observable_amplitude(cell), 20.0);
  cell.buffer_pkts = 50.0;  // ceiling clip: (50 - 20) / 2
  EXPECT_DOUBLE_EQ(analysis::observable_amplitude(cell), 15.0);
  cell.intersects = false;
  EXPECT_DOUBLE_EQ(analysis::observable_amplitude(cell), 0.0);
}

TEST(StabilityAtlas, MarkingLabelsRoundTrip) {
  // Every atlas label parses back to the rule that printed it; the
  // grammar itself is covered rule by rule in queue_test.
  queue::PieConfig pie;
  pie.alpha = 125.0;
  pie.beta = 1250.0;
  const queue::MarkingRule specs[] = {
      queue::MarkingRule::dctcp(40.0),
      queue::MarkingRule::dt_dctcp(20.0, 40.0),
      queue::MarkingRule::aqm(queue::RedConfig{.min_th = 30.0, .max_th = 90.0}),
      queue::MarkingRule::aqm(pie),
  };
  for (const auto& spec : specs) {
    const auto parsed = queue::MarkingRule::parse(spec.label());
    ASSERT_TRUE(parsed.has_value()) << spec.label();
    EXPECT_EQ(*parsed, spec) << spec.label();
  }
  EXPECT_EQ(specs[3].label(), "pie:50us,alpha=125,beta=1250");
  const auto red = queue::MarkingRule::parse("red:20,40,max_p=0.2,gentle=0,"
                                             "weight=0.01");
  ASSERT_TRUE(red.has_value());
  EXPECT_DOUBLE_EQ(red->red.max_p, 0.2);
  EXPECT_FALSE(red->red.gentle);
  EXPECT_DOUBLE_EQ(red->red.weight, 0.01);
  const auto pie_parsed =
      queue::MarkingRule::parse("pie:100us,alpha=125,beta=1250");
  ASSERT_TRUE(pie_parsed.has_value());
  EXPECT_DOUBLE_EQ(pie_parsed->pie.target_delay, 100e-6);
  EXPECT_DOUBLE_EQ(pie_parsed->pie.alpha, 125.0);
  EXPECT_DOUBLE_EQ(pie_parsed->pie.beta, 1250.0);
  EXPECT_FALSE(queue::MarkingRule::parse("dt:40"));
  EXPECT_FALSE(queue::MarkingRule::parse("red:40,20"));
  EXPECT_FALSE(queue::MarkingRule::parse("nonsense"));
}

TEST(StabilityAtlas, CrossCcVariantsAnalyzeCleanly) {
  // The DF layer must produce finite, NaN-free cells for every CC
  // variant (quantitative packet validation is pinned on the DCTCP
  // cells; see the RED/PIE envelope tests below and the bench).
  analysis::AtlasConfig cfg = small_atlas();
  cfg.markings = {queue::MarkingRule::dctcp(40.0)};
  cfg.ccs = {analysis::CcVariant::kDctcp, analysis::CcVariant::kEcnReno,
             analysis::CcVariant::kD2tcp};
  cfg.rtts = {1e-3};
  const auto atlas = analysis::run_stability_atlas(cfg);
  ASSERT_EQ(atlas.cells.size(), 3u);
  for (const auto& c : atlas.cells) {
    EXPECT_TRUE(std::isfinite(c.amplitude_pkts));
    EXPECT_TRUE(std::isfinite(c.frequency_hz));
    EXPECT_TRUE(std::isfinite(c.gain_margin_db));
    EXPECT_TRUE(std::isfinite(c.max_re_locus));
  }
}

// --- packet-level cross-validation (factor-2 envelope) ------------------

// One RED cell with a predicted cycle and one PIE cell predicted
// (effectively) stable, validated against the packet simulator exactly
// like bench/ext_stability_atlas gates its larger set.

TEST(StabilityAtlas, RedCellAgreesWithPacketSimWithinFactorTwo) {
  analysis::AtlasConfig cfg;
  cfg.markings = {queue::MarkingRule::aqm(
      queue::RedConfig{.min_th = 20.0, .max_th = 40.0})};
  analysis::AtlasCell cell;
  cell.marking = cfg.markings[0];
  cell.rtt = 1e-3;
  cell.rate_bps = 10e9;
  cell.buffer_pkts = 250.0;
  const auto pred = analysis::predict_atlas_cell(cfg, cell, 31);
  ASSERT_TRUE(pred.intersects);

  core::OscillationProbeConfig probe;
  probe.marking = cell.marking;
  probe.flows = 31;
  probe.rtt = cell.rtt;
  probe.rate_bps = cell.rate_bps;
  probe.buffer_pkts = cell.buffer_pkts;
  const auto obs = core::run_oscillation_probe(probe);
  // The comparable prediction is the clipped (observable) amplitude:
  // the DF swing dips below queue = 0, which the packet queue cannot.
  EXPECT_TRUE(core::within_factor(
      obs.amplitude_pkts, analysis::observable_amplitude(pred), 2.0))
      << obs.amplitude_pkts << " vs " << analysis::observable_amplitude(pred);
  EXPECT_TRUE(
      core::within_factor(obs.frequency_hz, pred.frequency_hz, 2.0))
      << obs.frequency_hz << " vs " << pred.frequency_hz;
}

TEST(StabilityAtlas, StablePieCellShowsNoSustainedOscillation) {
  analysis::AtlasConfig cfg;
  queue::PieConfig pie_cfg;
  pie_cfg.alpha = 125.0;  // datacenter-scale gains (see the bench)
  pie_cfg.beta = 1250.0;
  const auto pie = queue::MarkingRule::aqm(pie_cfg);
  cfg.markings = {pie};
  analysis::AtlasCell cell;
  cell.marking = pie;
  cell.rtt = 1e-3;
  cell.rate_bps = 10e9;
  cell.buffer_pkts = 250.0;
  const auto pred = analysis::predict_atlas_cell(cfg, cell, 12);
  // Every DF root is sub-packet: effectively stable under the atlas's
  // one-packet floor.
  EXPECT_FALSE(pred.intersects);

  core::OscillationProbeConfig probe;
  probe.marking = pie;
  probe.flows = 12;
  probe.rtt = cell.rtt;
  probe.rate_bps = cell.rate_bps;
  probe.buffer_pkts = cell.buffer_pkts;
  const auto obs = core::run_oscillation_probe(probe);
  // The queue holds near target_delay * C (~41.7 pkts) with RMS
  // fluctuation well under half the operating level.
  EXPECT_LT(obs.amplitude_rms_pkts, 0.5 * pred.operating_queue);
  EXPECT_NEAR(obs.queue_mean, pred.operating_queue,
              0.5 * pred.operating_queue);
  EXPECT_GT(obs.utilization, 0.9);
}

}  // namespace
}  // namespace dtdctcp
