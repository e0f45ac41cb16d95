// Google-benchmark microbenchmarks of the parsim executor: the same
// leaf-spine permutation scenario run serial (shards = 0), through the
// single-shard window protocol (shards = 1, measuring pure protocol
// overhead — it must be within noise of serial), and sharded across
// worker threads. The pkts/s counter and the exact per-run events
// count feed the CI gate via tools/bench_merge.py.
#include <benchmark/benchmark.h>

#include "parsim/fabric.h"
#include "util/units.h"

using namespace dtdctcp;

namespace {

parsim::FabricConfig bench_fabric(std::size_t shards) {
  parsim::FabricConfig fc;
  fc.fabric.spines = 2;
  fc.fabric.leaves = 4;
  fc.fabric.hosts_per_leaf = 8;
  fc.shards = shards;
  fc.segments_per_flow = 80;
  fc.seed = 5;
  return fc;
}

void BM_FabricSharded(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const parsim::FabricResult r = parsim::run_fabric(bench_fabric(shards));
    events += r.events;
    packets += r.fabric_packets;
    benchmark::DoNotOptimize(r.digest);
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
BENCHMARK(BM_FabricSharded)
    ->Arg(0)   // serial reference
    ->Arg(1)   // window protocol, no threads
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // worker threads do the simulating; CPU time lies

}  // namespace

BENCHMARK_MAIN();
