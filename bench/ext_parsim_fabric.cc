// Extension: parsim scaling table — the stress-preset leaf-spine
// fabric (8 leaves x 32 hosts, 256 cross-rack permutation flows) run
// serial and at 1/2/4/8 shards, reporting wall time, events/s, speedup
// over serial, and the ShardRunner round/mailbox telemetry. Also pins
// the determinism guarantees where they matter most (full scale):
// shards = 1 must reproduce the serial digest bit-for-bit, and every
// sharded run must close its cross-shard conservation ledger.
//
// Exports (into DTDCTCP_CSV_DIR, when set):
//   * ext_parsim_fabric.csv  — plot-ready CSV (shards vs events/s)
//   * ext_parsim_fabric.json — bench::Report rows carrying events/s and
//     the kernel event count per shard count, merged into BENCH_simcore
//     by CI; tools/bench_merge.py gates the event count exactly
//
// Speedup > 1 requires real cores: on a single-CPU host the sharded
// rows measure protocol overhead, not parallelism.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "parsim/fabric.h"

using namespace dtdctcp;

namespace {

struct Row {
  std::size_t shards = 0;
  parsim::FabricResult r;
};

}  // namespace

int main() {
  bench::header("ext_parsim_fabric",
                "conservative-parallel scaling on the stress fabric");

  parsim::FabricConfig base;
  base.fabric = sim::LeafSpineConfig::stress();
  base.segments_per_flow = static_cast<std::int64_t>(
      bench::scaled(120.0, 20.0));
  base.seed = 17;

  std::printf("fabric: %zu spines, %zu leaves x %zu hosts (%zu flows), "
              "%lld segments/flow, %u hardware threads\n",
              base.fabric.spines, base.fabric.leaves,
              base.fabric.hosts_per_leaf, base.fabric.total_hosts(),
              static_cast<long long>(base.segments_per_flow),
              std::thread::hardware_concurrency());

  const std::size_t shard_counts[] = {0, 1, 2, 4, 8};
  std::vector<Row> rows;
  for (const std::size_t shards : shard_counts) {
    parsim::FabricConfig fc = base;
    fc.shards = shards;
    Row row;
    row.shards = shards;
    row.r = parsim::run_fabric(fc);
    rows.push_back(std::move(row));
  }
  const Row& serial = rows.front();
  const double serial_wall = serial.r.wall_seconds;

  bench::section("scaling");
  std::printf("%7s %12s %10s %10s %9s %8s %8s %6s\n", "shards", "events",
              "wall_s", "events/s", "speedup", "rounds", "mailbox",
              "ledger");
  bool ok = true;
  std::vector<std::vector<double>> csv_rows;
  bench::Report report("ext_parsim_fabric");
  for (const Row& row : rows) {
    const parsim::FabricResult& r = row.r;
    const double evps =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.events) / r.wall_seconds
            : 0.0;
    const double speedup =
        r.wall_seconds > 0.0 ? serial_wall / r.wall_seconds : 0.0;
    std::uint64_t mailbox = 0;
    for (const parsim::ShardStats& s : r.telemetry.shard) {
      mailbox += s.drained;
    }
    std::printf("%7zu %12llu %10.3f %10.3e %8.2fx %8llu %8llu %6s\n",
                row.shards, static_cast<unsigned long long>(r.events),
                r.wall_seconds, evps, speedup,
                static_cast<unsigned long long>(r.telemetry.rounds),
                static_cast<unsigned long long>(mailbox),
                r.ledger_ok ? "ok" : "FAIL");
    if (!r.ledger_ok || r.completed != r.flows) ok = false;
    csv_rows.push_back({static_cast<double>(row.shards),
                        static_cast<double>(r.events), r.wall_seconds, evps,
                        speedup});
    report.row("parsim/stress/shards_" + std::to_string(row.shards))
        .add("events/s", evps)
        .add("events", r.events)
        .add("wall_s", r.wall_seconds);
  }

  bench::section("determinism pins");
  const bool one_shard_identical = rows[1].r.digest == serial.r.digest;
  std::printf("serial digest           : %016llx\n",
              static_cast<unsigned long long>(serial.r.digest));
  std::printf("1-shard digest          : %016llx  (%s)\n",
              static_cast<unsigned long long>(rows[1].r.digest),
              one_shard_identical ? "bit-identical, ok" : "MISMATCH");
  if (!one_shard_identical) ok = false;
  for (std::size_t i = 2; i < rows.size(); ++i) {
    parsim::FabricConfig fc = base;
    fc.shards = rows[i].shards;
    const parsim::FabricResult again = parsim::run_fabric(fc);
    const bool stable = again.digest == rows[i].r.digest;
    std::printf("%zu-shard repeat digest   : %016llx  (%s)\n",
                rows[i].shards,
                static_cast<unsigned long long>(again.digest),
                stable ? "run-to-run identical, ok" : "NONDETERMINISTIC");
    if (!stable) ok = false;
  }

  bench::maybe_write_csv("ext_parsim_fabric",
                         {"shards", "events", "wall_s", "events_per_s",
                          "speedup"},
                         csv_rows);
  report.write();

  bench::expectation(
      "events/s roughly flat from serial to 1 shard (protocol overhead "
      "only), then rising with shard count when real cores are "
      "available; digests pinned as printed above.");
  return ok ? 0 : 1;
}
