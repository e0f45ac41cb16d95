// Google-benchmark microbenchmarks of the data plane: raw ring-buffer
// FIFO storage under the compact 64-byte Packet, a discipline round trip
// with a deep resident queue, and the devirtualized occupancy-observer
// path. The empty-queue discipline round trips (BM_*EnqueueDequeue) and
// the dumbbell packets-per-second run (BM_DumbbellEndToEnd) live in
// micro_simcore.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "queue/ecn_threshold.h"
#include "sim/queue_monitor.h"
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
// Discipline round trips with the queue held non-empty or observed.

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

}  // namespace

BENCHMARK_MAIN();
