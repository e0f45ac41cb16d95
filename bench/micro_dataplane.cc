// Google-benchmark microbenchmarks of the data plane: the compact
// 64-byte Packet, ring-buffer FIFO storage, and the devirtualized
// occupancy-observer path. Round-trip shapes mirror the historical
// BM_*EnqueueDequeue benchmarks in micro_simcore so results are
// comparable across the API migration; the deep-queue and churn
// variants stress the ring buffer where std::deque paid per-block
// allocation costs.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "core/dumbbell.h"
#include "queue/drop_tail.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "sim/queue_monitor.h"
#include "sim/simulator.h"
#include "util/ring_buffer.h"

using namespace dtdctcp;

namespace {

// ---------------------------------------------------------------------------
// Raw ring-buffer cost, without any discipline logic on top.

void BM_RingBufferPushPop(benchmark::State& state) {
  util::RingBuffer<sim::Packet> q;
  sim::Packet p;
  p.size_bytes = 1500;
  for (auto _ : state) {
    q.push_back(p);
    sim::Packet out = q.front();
    q.pop_front();
    benchmark::DoNotOptimize(out.uid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingBufferPushPop);

void BM_RingBufferDeepChurn(benchmark::State& state) {
  // Hold `depth` packets resident and rotate through them, so every
  // push/pop pair walks the buffer across its wrap point. This is the
  // steady state of a loaded switch port.
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  util::RingBuffer<sim::Packet> q;
  sim::Packet p;
  p.size_bytes = 1500;
  for (std::size_t i = 0; i < depth; ++i) q.push_back(p);
  for (auto _ : state) {
    q.push_back(p);
    sim::Packet out = q.front();
    q.pop_front();
    benchmark::DoNotOptimize(out.uid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingBufferDeepChurn)->Arg(64)->Arg(1024);

// ---------------------------------------------------------------------------
// Discipline round trips: same shapes as the historical micro_simcore
// BM_*EnqueueDequeue benchmarks (empty queue, one packet in flight).

void BM_DataPlaneDropTailRoundTrip(benchmark::State& state) {
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
BENCHMARK(BM_DataPlaneDropTailRoundTrip);

void BM_DataPlaneEcnThresholdRoundTrip(benchmark::State& state) {
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
BENCHMARK(BM_DataPlaneEcnThresholdRoundTrip);

void BM_DataPlaneEcnHysteresisRoundTrip(benchmark::State& state) {
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
BENCHMARK(BM_DataPlaneEcnHysteresisRoundTrip);

void BM_DataPlaneDeepQueueRoundTrip(benchmark::State& state) {
  // Round trip with `depth` packets resident: the discipline's storage
  // wraps continuously instead of ping-ponging on one slot.
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  queue::EcnThresholdQueue q(0, 0, 40.0, queue::ThresholdUnit::kPackets);
  sim::Packet p;
  p.size_bytes = 1500;
  p.ect = true;
  for (std::size_t i = 0; i < depth; ++i) q.enqueue(p, 0.0);
  sim::Packet out;
  for (auto _ : state) {
    q.enqueue(p, 0.0);
    benchmark::DoNotOptimize(q.dequeue(out, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataPlaneDeepQueueRoundTrip)->Arg(64)->Arg(1024);

void BM_DataPlaneObservedRoundTrip(benchmark::State& state) {
  // Round trip with a QueueMonitor attached: measures the devirtualized
  // QueueObserver* notification path (previously a std::function call).
  queue::EcnThresholdQueue q(0, 0, 40.0, queue::ThresholdUnit::kPackets);
  sim::QueueMonitor mon;
  mon.attach(q);
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
BENCHMARK(BM_DataPlaneObservedRoundTrip);

// ---------------------------------------------------------------------------
// End-to-end: packets simulated per wall second through the dumbbell,
// same configuration as micro_simcore's BM_DumbbellEndToEnd.

void BM_DataPlaneDumbbellPps(benchmark::State& state) {
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
BENCHMARK(BM_DataPlaneDumbbellPps)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
