#include "analysis/nyquist.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace dtdctcp::analysis {

namespace {

Complex residual(const MarkingModel& m, double x, double w) {
  return m.loop_response(w) + 1.0 / m.relative_df(x);
}

/// Damped 2-D Newton on (x, w) with a finite-difference Jacobian.
bool newton_refine(const MarkingModel& m, double& x, double& w, double x_min,
                   double tol) {
  for (int it = 0; it < 100; ++it) {
    const Complex f = residual(m, x, w);
    const double err = std::abs(f);
    if (err < tol) return true;
    const double hx = std::max(1e-9, 1e-7 * x);
    const double hw = std::max(1e-9, 1e-7 * w);
    const Complex fx = (residual(m, x + hx, w) - f) / hx;
    const Complex fw = (residual(m, x, w + hw) - f) / hw;
    // Solve [Re fx Re fw; Im fx Im fw] * [dx dw]' = -[Re f; Im f].
    const double det = fx.real() * fw.imag() - fw.real() * fx.imag();
    if (std::abs(det) < 1e-30) return false;
    double dx = (-f.real() * fw.imag() + fw.real() * f.imag()) / det;
    double dw = (-fx.real() * f.imag() + f.real() * fx.imag()) / det;
    // Damp steps that would leave the domain.
    double scale = 1.0;
    while (scale > 1e-6 &&
           (x + scale * dx <= x_min || w + scale * dw <= 0.0)) {
      scale *= 0.5;
    }
    if (scale <= 1e-6) return false;
    x += scale * dx;
    w += scale * dw;
  }
  return std::abs(residual(m, x, w)) < tol;
}

}  // namespace

StabilityReport analyze(const PlantParams& plant,
                        const queue::MarkingRule& marking,
                        const SolverOptions& opt) {
  StabilityReport report;
  const MarkingModel model = MarkingModel::make(marking, plant);
  const double x_min = model.x_min * (1.0 + 1e-9);
  const double x_max =
      model.x_search_max(opt.x_max_factor, opt.w_lo, opt.w_hi);

  report.max_real_neg_recip = model.max_real_neg_recip(x_max);

  // Negative-real-axis crossing of the loop locus (diagnostic; exact
  // stability test for the rules whose -1/N0 lies on the real axis).
  double crossings[4] = {0, 0, 0, 0};
  int ncross = 0;
  if (model.has_filter()) {
    ncross = phase_crossings(
        plant, [&model](double w) { return model.filter_phase(w); },
        opt.w_lo, opt.w_hi, crossings, 4);
  } else {
    ncross = phase_crossings(plant, opt.w_lo, opt.w_hi, crossings, 4);
  }
  if (ncross > 0) {
    report.crossing_omega = crossings[0];
    report.crossing_real = model.loop_response(crossings[0]).real();
  }

  // Seed grid for the 2-D root finder.
  constexpr int kXSeeds = 24;
  constexpr int kWSeeds = 24;
  struct Seed {
    double x, w, err;
  };
  std::vector<Seed> seeds;
  seeds.reserve(kXSeeds * (kWSeeds + ncross * 8));

  auto push_seed = [&](double x, double w) {
    const double err = std::abs(residual(model, x, w));
    seeds.push_back({x, w, err});
  };

  double min_dist = 1e300;
  for (int i = 0; i < kXSeeds; ++i) {
    const double x =
        x_min * std::pow(x_max / x_min, static_cast<double>(i) / (kXSeeds - 1));
    for (int j = 0; j < kWSeeds; ++j) {
      const double w = opt.w_lo * std::pow(opt.w_hi / opt.w_lo,
                                           static_cast<double>(j) /
                                               (kWSeeds - 1));
      push_seed(x, w);
      min_dist = std::min(min_dist, seeds.back().err);
    }
    // Extra seeds clustered at the phase crossings, where intersections
    // with the (near-real-axis) DF locus actually occur.
    for (int c = 0; c < ncross; ++c) {
      for (double f : {0.7, 0.85, 1.0, 1.15, 1.3}) {
        push_seed(x, crossings[c] * f);
        min_dist = std::min(min_dist, seeds.back().err);
      }
    }
  }
  report.min_locus_distance = min_dist;

  std::sort(seeds.begin(), seeds.end(),
            [](const Seed& a, const Seed& b) { return a.err < b.err; });

  const double tol = opt.tolerance;
  std::vector<LimitCycle> roots;
  const std::size_t tries = std::min<std::size_t>(seeds.size(), 40);
  for (std::size_t i = 0; i < tries; ++i) {
    double x = seeds[i].x;
    double w = seeds[i].w;
    if (!newton_refine(model, x, w, x_min, tol)) continue;
    if (x < x_min || x > x_max * 10.0 || w <= 0.0) continue;
    bool dup = false;
    for (const auto& r : roots) {
      if (std::abs(r.input_amplitude - x) < 1e-4 * x &&
          std::abs(r.omega - w) < 1e-4 * w) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    LimitCycle lc;
    lc.input_amplitude = x;
    lc.amplitude = model.queue_amplitude(x, w);
    if (lc.amplitude < opt.min_queue_amplitude) continue;
    lc.omega = w;
    lc.residual = std::abs(residual(model, x, w));
    roots.push_back(lc);
  }

  std::sort(roots.begin(), roots.end(),
            [](const LimitCycle& a, const LimitCycle& b) {
              return a.amplitude < b.amplitude;
            });
  // Per the paper's Nyquist reading: with two intersections the
  // smaller-amplitude cycle is unstable, the larger one sustained. A
  // single intersection is the sustained cycle.
  for (std::size_t i = 0; i < roots.size(); ++i) {
    roots[i].stable = (i + 1 == roots.size());
  }
  report.cycles = std::move(roots);
  report.intersects = !report.cycles.empty();
  return report;
}

CriticalFlows critical_flows_bracket(PlantParams plant,
                                     const queue::MarkingRule& marking,
                                     int n_lo, int n_hi,
                                     const SolverOptions& opt) {
  CriticalFlows result;
  if (n_lo > n_hi) return result;
  auto intersects_at = [&](int n) {
    plant.flows = static_cast<double>(n);
    return analyze(plant, marking, opt).intersects;
  };
  if (intersects_at(n_lo)) {
    result.critical_n = n_lo;
    return result;  // onset at or below the range; no stable bracket
  }
  if (n_lo == n_hi || !intersects_at(n_hi)) {
    result.stable_n = n_hi;
    return result;  // whole range stable
  }
  // Invariant: lo stable, hi cycling. Relies on `intersects` being
  // monotone in N (see header); the regression test pins agreement with
  // the linear scan on the paper's operating point.
  int lo = n_lo;
  int hi = n_hi;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (intersects_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.stable_n = lo;
  result.critical_n = hi;
  return result;
}

int critical_flows(PlantParams plant, const queue::MarkingRule& marking,
                   int n_lo, int n_hi, const SolverOptions& opt) {
  return critical_flows_bracket(plant, marking, n_lo, n_hi, opt).critical_n;
}

std::vector<std::pair<double, Complex>> sample_plant_locus(
    const PlantParams& plant, const queue::MarkingRule& marking, double w_lo,
    double w_hi, int count) {
  std::vector<std::pair<double, Complex>> out;
  if (count <= 0) return out;
  out.reserve(count);
  const MarkingModel model = MarkingModel::make(marking, plant);
  for (int i = 0; i < count; ++i) {
    const double w =
        w_lo * std::pow(w_hi / w_lo,
                        static_cast<double>(i) / std::max(1, count - 1));
    out.emplace_back(w, model.loop_response(w));
  }
  return out;
}

namespace {

std::vector<std::pair<double, Complex>> sample_locus(
    const MarkingModel& model, double x_max_factor, int count) {
  std::vector<std::pair<double, Complex>> out;
  if (count <= 0) return out;
  out.reserve(count);
  const double x_min = model.x_min * (1.0 + 1e-6);
  // A factor at or below 1 would start the log-spaced walk below the
  // validity bound (sqrt of a negative ratio -> NaN); clamp to the
  // single-point locus at the bound instead.
  const double x_max = std::max(model.x_min * x_max_factor, x_min);
  for (int i = 0; i < count; ++i) {
    const double x =
        x_min * std::pow(x_max / x_min,
                         static_cast<double>(i) / std::max(1, count - 1));
    out.emplace_back(x, model.neg_recip(x));
  }
  return out;
}

}  // namespace

std::vector<std::pair<double, Complex>> sample_df_locus(
    const queue::MarkingRule& marking, double x_max_factor, int count) {
  return sample_locus(MarkingModel::make(marking, PlantParams{}),
                      x_max_factor, count);
}

std::vector<std::pair<double, Complex>> sample_df_locus(
    const PlantParams& plant, const queue::MarkingRule& marking,
    double x_max_factor, int count) {
  return sample_locus(MarkingModel::make(marking, plant), x_max_factor,
                      count);
}

}  // namespace dtdctcp::analysis
