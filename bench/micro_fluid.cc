// Google-benchmark microbenchmarks of the fluid model integrator and
// the hybrid coupling path. steps/s is the CI-gated throughput metric
// (tools/bench_merge.py): one "step" is one RK4 step of the DCTCP
// fluid ODEs including the delayed-marking ring-buffer update. The
// coupled variants measure what the hybrid layer adds on top — the
// external-arrival term, the queue offset folded into the marking
// history, and the event-cadence advance_to() entry point — so a
// regression in the co-simulation hot loop shows up here before it
// shows up as ext_hybrid_scale wall-clock.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "fluid/fluid_model.h"
#include "hybrid/fluid_background.h"
#include "queue/factory.h"
#include "sim/port.h"
#include "sim/simulator.h"

using namespace dtdctcp;

namespace {

fluid::FluidParams bench_params(double flows, bool dynamic_rtt) {
  fluid::FluidParams p;
  p.capacity_pps = 833333.0;  // 10 Gbps at 1.5 KB
  p.flows = flows;
  p.rtt = 1e-4;
  p.marking = queue::MarkingRule::dt_dctcp(15.0, 25.0);
  p.dynamic_rtt = dynamic_rtt;
  return p;
}

// ---------------------------------------------------------------------------
// Raw integrator throughput: the closed model, as the paper benches run
// it (fixed R0), and the self-limiting dynamic-RTT variant the hybrid
// layer uses.

void BM_FluidStep(benchmark::State& state) {
  fluid::FluidModel model(bench_params(static_cast<double>(state.range(0)),
                                       /*dynamic_rtt=*/false));
  for (auto _ : state) {
    model.step();
    benchmark::DoNotOptimize(model.state().q);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FluidStep)->Arg(10)->Arg(10000);

void BM_FluidStepDynamicRtt(benchmark::State& state) {
  fluid::FluidModel model(bench_params(static_cast<double>(state.range(0)),
                                       /*dynamic_rtt=*/true));
  for (auto _ : state) {
    model.step();
    benchmark::DoNotOptimize(model.state().q);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FluidStepDynamicRtt)->Arg(10000);

// ---------------------------------------------------------------------------
// The hybrid coupling additions: external arrival + queue offset active
// (the coupled derivative), stepped through the event-cadence
// advance_to() entry point exactly as a FluidBackground tick does —
// one coupling update per R0/4 of model time, ~50 RK4 steps each.

void BM_FluidAdvanceCoupled(benchmark::State& state) {
  fluid::FluidModel model(bench_params(10000.0, /*dynamic_rtt=*/true));
  model.reset({/*w=*/1.0, /*alpha=*/0.0, /*q=*/0.0});
  const double couple_dt = 1e-4 / 4.0;
  double t = 0.0;
  std::size_t steps_per_tick = 0;
  for (auto _ : state) {
    t += couple_dt;
    model.set_external_arrival_pps(50000.0);
    model.set_queue_offset(12.0);
    const double before = model.time();
    model.advance_to(t);
    if (steps_per_tick == 0) {
      steps_per_tick =
          static_cast<std::size_t>((model.time() - before) / model.dt() + 0.5);
    }
    benchmark::DoNotOptimize(model.state().q);
  }
  const auto steps =
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(steps_per_tick > 0 ? steps_per_tick : 1);
  state.SetItemsProcessed(steps);
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FluidAdvanceCoupled);

// ---------------------------------------------------------------------------
// Full hybrid tick overhead: a FluidBackground attached to a real port
// driven by simulator timers — coupling measurement, model advance,
// gauge publication, reschedule. Items = coupling ticks.

void BM_HybridCouplingTick(benchmark::State& state) {
  const double link_bps = 10e9;
  std::int64_t ticks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simu;
    sim::Port port(simu, link_bps, 1e-6,
                   queue::ecn_threshold(0, 250, 20.0,
                                        queue::ThresholdUnit::kPackets)());
    hybrid::FluidBackgroundConfig cfg;
    cfg.flows = 10000.0;
    cfg.horizon = 10e-3;  // 400 ticks at R0/4
    hybrid::FluidBackground bg(cfg, link_bps);
    bg.attach(port);
    state.ResumeTiming();
    simu.run();
    benchmark::DoNotOptimize(bg.queue_pkts());
    ticks += static_cast<std::int64_t>(bg.ticks());
  }
  state.SetItemsProcessed(ticks);
}
BENCHMARK(BM_HybridCouplingTick);

}  // namespace

BENCHMARK_MAIN();
