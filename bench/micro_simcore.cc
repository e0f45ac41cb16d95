// Google-benchmark microbenchmarks of the simulator substrate: event
// scheduling throughput, queue-discipline operations, and end-to-end
// packets-per-second through the dumbbell. These bound the cost of the
// figure harnesses and catch performance regressions.
#include <benchmark/benchmark.h>

#include "core/dumbbell.h"
#include "queue/drop_tail.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "sim/simulator.h"

using namespace dtdctcp;

namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    long long sink = 0;
    for (int i = 0; i < batch; ++i) {
      s.at(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_TimerRearmChurn(benchmark::State& state) {
  // The RTO pattern at kernel level: arm a far-out timer, cancel it,
  // arm a replacement — per flow, every ACK. Dead timers are removed
  // eagerly, so the queue stays at O(flows) entries no matter how many
  // rearms happen; this measures the arm+cancel round trip.
  const int flows = static_cast<int>(state.range(0));
  sim::Simulator s;
  std::vector<sim::TimerHandle> rto(static_cast<std::size_t>(flows));
  long long sink = 0;
  for (auto _ : state) {
    for (auto& h : rto) {
      s.cancel(h);
      h = s.timer_after(1e6, [&sink] { ++sink; });
    }
  }
  if (s.queue_size() > static_cast<std::size_t>(flows)) {
    state.SkipWithError("dead timers lingered in the queue");
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_TimerRearmChurn)->Arg(1)->Arg(100);

void BM_DeadTimerHeavyRun(benchmark::State& state) {
  // Schedule-and-run where most timers die before firing: 7 of every 8
  // are cancelled mid-run by the event that precedes them. Exercises
  // O(log n) removal from the middle of the live heap.
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    std::vector<sim::TimerHandle> timers(static_cast<std::size_t>(batch));
    long long sink = 0;
    for (int i = 0; i < batch; ++i) {
      timers[static_cast<std::size_t>(i)] =
          s.timer_at(1.0 + static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    s.at(0.5, [&] {
      for (int i = 0; i < batch; ++i) {
        if (i % 8 != 0) s.cancel(timers[static_cast<std::size_t>(i)]);
      }
    });
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DeadTimerHeavyRun)->Arg(1000)->Arg(100000);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  queue::DropTailQueue q(0, 0);
  sim::Packet p;
  p.size_bytes = 1500;
  sim::Packet out;
  for (auto _ : state) {
    q.enqueue(p, 0.0);
    benchmark::DoNotOptimize(q.dequeue(out, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_EcnThresholdEnqueueDequeue(benchmark::State& state) {
  queue::EcnThresholdQueue q(0, 0, 40.0, queue::ThresholdUnit::kPackets);
  sim::Packet p;
  p.size_bytes = 1500;
  p.ect = true;
  sim::Packet out;
  for (auto _ : state) {
    q.enqueue(p, 0.0);
    benchmark::DoNotOptimize(q.dequeue(out, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcnThresholdEnqueueDequeue);

void BM_EcnHysteresisEnqueueDequeue(benchmark::State& state) {
  queue::EcnHysteresisQueue q(0, 0, 30.0, 50.0,
                              queue::ThresholdUnit::kPackets);
  sim::Packet p;
  p.size_bytes = 1500;
  p.ect = true;
  sim::Packet out;
  for (auto _ : state) {
    q.enqueue(p, 0.0);
    benchmark::DoNotOptimize(q.dequeue(out, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcnHysteresisEnqueueDequeue);

void BM_DumbbellEndToEnd(benchmark::State& state) {
  // Packets simulated per wall second through the full stack.
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    core::DumbbellConfig cfg;
    cfg.flows = flows;
    cfg.bottleneck_bps = units::gbps(10);
    cfg.rtt = units::microseconds(100);
    cfg.switch_buffer_packets = 100;
    cfg.warmup = 0.005;
    cfg.measure = 0.02;
    const auto r = core::run_dumbbell(cfg);
    events += r.events;
    packets += r.packets;
    benchmark::DoNotOptimize(r.queue_mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["pkts/s"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
  // Kernel events per run: deterministic, so gated exactly.
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DumbbellEndToEnd)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
