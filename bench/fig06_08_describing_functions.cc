// Figures 6 and 8: describing functions of the two marking
// nonlinearities. Prints the closed forms (paper Eq. 22 and Eq. 27)
// against an independent numeric Fourier quadrature of the raw
// relay/hysteresis automaton, plus the -1/N0 loci used in Fig. 9.
#include <cmath>
#include <cstdio>

#include "analysis/describing_function.h"
#include "analysis/marking_model.h"
#include "bench/bench_common.h"

using namespace dtdctcp;
using analysis::Complex;

int main() {
  bench::header("Figures 6+8", "describing functions: relay vs hysteresis");
  const double k = 40.0, k1 = 30.0, k2 = 50.0;

  bench::section("DCTCP relay DF (Eq. 22), K = 40");
  std::printf("%8s %14s %14s %12s\n", "X_pkts", "closed_form", "numeric",
              "rel_err");
  for (double x : {41.0, 45.0, 50.0, 56.57, 70.0, 100.0, 200.0, 800.0}) {
    const Complex cf = analysis::df_dctcp(x, k);
    const Complex nu =
        analysis::numeric_df(queue::MarkingRule::dctcp(k), x, 0.0);
    std::printf("%8.2f %14.6e %14.6e %12.2e\n", x, cf.real(), nu.real(),
                std::abs(nu - cf) / std::abs(cf));
  }

  bench::section("DT-DCTCP hysteresis DF (Eq. 27), K1 = 30, K2 = 50");
  std::printf("%8s %12s %12s %12s %12s %10s\n", "X_pkts", "Re_closed",
              "Im_closed", "Re_numeric", "Im_numeric", "rel_err");
  for (double x : {51.0, 55.0, 60.0, 70.0, 100.0, 200.0, 800.0}) {
    const Complex cf = analysis::df_dtdctcp(x, k1, k2);
    const Complex nu =
        analysis::numeric_df(queue::MarkingRule::dt_dctcp(k1, k2), x, 0.0);
    std::printf("%8.2f %12.4e %12.4e %12.4e %12.4e %10.2e\n", x, cf.real(),
                cf.imag(), nu.real(), nu.imag(),
                std::abs(nu - cf) / std::abs(cf));
  }

  bench::section("-1/N0 loci (the curves of Fig. 9)");
  std::printf("%8s %14s %14s %14s %14s\n", "X_pkts", "dc_Re(-1/N0)",
              "dc_Im(-1/N0)", "dt_Re(-1/N0)", "dt_Im(-1/N0)");
  const auto dc_model =
      analysis::MarkingModel::make(queue::MarkingRule::dctcp(k), {});
  const auto dt_model =
      analysis::MarkingModel::make(queue::MarkingRule::dt_dctcp(k1, k2), {});
  for (double x : {51.0, 55.0, 60.0, 70.0, 85.0, 110.0, 160.0, 300.0, 1000.0}) {
    const Complex dc = dc_model.neg_recip(x);
    const Complex dt = dt_model.neg_recip(x);
    std::printf("%8.1f %14.4f %14.4f %14.4f %14.4f\n", x, dc.real(),
                dc.imag(), dt.real(), dt.imag());
  }

  double ax_dc = 0.0, ax_dt = 0.0;
  const double mdc = analysis::max_real_of_locus(
      [&](double x) { return dc_model.neg_recip(x); }, k + 1e-6, 200 * k,
      &ax_dc);
  const double mdt = analysis::max_real_of_locus(
      [&](double x) { return dt_model.neg_recip(x); }, k2 + 1e-6, 200 * k2,
      &ax_dt);
  std::printf("\nmax Re(-1/N0dc) = %.4f at X = %.2f (theory: -pi = %.4f at "
              "K*sqrt2 = %.2f)\n",
              mdc, ax_dc, -M_PI, k * std::sqrt(2.0));
  std::printf("max Re(-1/N0dt) = %.4f at X = %.2f\n", mdt, ax_dt);

  bench::expectation(
      "Numeric quadrature matches the closed forms to <1e-3. The relay's "
      "-1/N0 lies on the real axis with maximum -pi; the hysteresis "
      "-1/N0 has a strictly positive imaginary part (phase lead), the "
      "basis of Theorem 2's stability margin.");
  return 0;
}
