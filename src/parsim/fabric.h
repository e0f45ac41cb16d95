// Shard-safe fabric traffic harness: one Clos fabric (leaf-spine or
// k-ary fat-tree), one scenario, serial or sharded execution — the
// workload behind the parsim/fabric benches, determinism tests, and
// sim_fuzz --large.
//
// Scenario: a cross-pod permutation. Host i opens one finite DCTCP flow
// to host (i + hosts_per_pod) mod N — a leaf-spine pod is one leaf, so
// every flow crosses the core tier and every host is both a sender and
// a receiver. Start times are staggered from the seed. All flow state
// is shard-local (each TCP endpoint schedules on its own host's shard),
// so the same scenario runs on any shard count. Determinism guarantees:
// for a fixed shard count the digest is identical run-to-run, and shard
// count 1 is byte-identical to the serial (shards == 0) run — both
// pinned by tests. Different shard counts may order same-timestamp
// events differently and are not required to match bit-for-bit.
//
// Every feature works on both shapes:
//  * link_events schedule mid-run link failures/recoveries; in sharded
//    runs the same event is applied on every shard against a per-shard
//    down-set copy, each shard rewriting only the switches it owns.
//  * priority_classes >= 2 installs a MultiQueueDisc per switch egress
//    (strict or WRR) and tags flow i with class i % classes.
//  * hybrid_background puts one fluid aggregate on each edge switch's
//    first uplink.
#pragma once

#include <cstdint>
#include <vector>

#include "parsim/shard_runner.h"
#include "queue/multi_queue.h"
#include "sim/fabric.h"
#include "tcp/config.h"

namespace dtdctcp::parsim {

enum class FabricTopology : std::uint8_t { kLeafSpine, kFatTree };

struct FabricConfig {
  FabricTopology topology = FabricTopology::kLeafSpine;
  sim::LeafSpineConfig fabric{};    ///< used when topology == kLeafSpine
  sim::FatTreeConfig fat_tree{};    ///< used when topology == kFatTree
  /// Scheduled link failures/recoveries. Link indices (sim::Clos::links
  /// numbering) are taken modulo the built fabric's link count.
  std::vector<sim::LinkEvent> link_events;
  /// 0 or 1 = one queue per port (legacy). >= 2 wraps every switch
  /// egress in a MultiQueueDisc with that many classes (each class its
  /// own AQM instance) and tags flow i with priority i % classes.
  std::size_t priority_classes = 0;
  queue::SchedPolicy sched_policy = queue::SchedPolicy::kStrictPriority;
  std::vector<std::uint32_t> wrr_weights;  ///< empty = all weights 1
  /// 0 = pure serial run (no parsim objects at all — the reference for
  /// byte-identity); 1 = single-shard parsim executor; N > 1 = sharded.
  std::size_t shards = 0;
  double mark_threshold_packets = 65.0;  ///< K on every switch egress
  std::size_t buffer_packets = 250;      ///< per-port (per-class) limit
  tcp::TcpConfig tcp{};
  std::int64_t segments_per_flow = 200;  ///< finite flows; run to drain
  SimTime start_spread = 200e-6;
  std::uint64_t seed = 1;
  ShardRunnerOptions::Check check = ShardRunnerOptions::Check::kEnv;
  check::CheckConfig check_cfg;

  // Hybrid fluid background. When enabled, each edge switch's first
  // uplink carries one hybrid::FluidBackground aggregate of
  // `hybrid_flows` long-lived flows, attached after shard rebinding so
  // all aggregate state is shard-local and the run stays
  // digest-deterministic. `hybrid_flows == 0` attaches inert
  // aggregates (gauges exactly 0.0 / 1.0): byte-identical to
  // hybrid_background == false, pinned by test.
  bool hybrid_background = false;
  double hybrid_flows = 0.0;
  double hybrid_rtt = 1e-4;
  /// Coupling window; ticks stop here so finite-flow runs can drain.
  SimTime hybrid_horizon = 0.02;
};

struct FabricResult {
  std::uint64_t events = 0;          ///< sum over shard simulators
  std::uint64_t fabric_packets = 0;  ///< transmissions on switch ports
  std::uint64_t marks = 0;
  std::uint64_t drops = 0;
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  double sum_fct = 0.0;  ///< seconds, over completed flows
  double max_fct = 0.0;
  double p99_fct = 0.0;  ///< seconds, over completed flows
  /// Queued packets discarded because their egress link went down
  /// (Port::drop_queued) — separate from queue/AQM drops.
  std::uint64_t link_down_drops = 0;
  /// FNV-1a over every flow's completion state and every switch's
  /// counters, in deterministic (construction) order: a bit-exact
  /// fingerprint of the simulation outcome. Equal digests mean equal
  /// runs at double precision.
  std::uint64_t digest = 0;
  double wall_seconds = 0.0;  ///< traffic run only (topology build excluded)
  bool ledger_ok = true;      ///< ShardRunner::finalize (sharded runs)
  std::uint64_t check_violations = 0;  ///< per-shard checkers, if installed
  ShardRunnerTelemetry telemetry;      ///< empty for shards == 0
  // Hybrid background (zeros when disabled / inert).
  std::uint64_t hybrid_ticks = 0;   ///< coupling samples, all aggregates
  double hybrid_share_mean = 0.0;   ///< mean over aggregates' time-means
};

FabricResult run_fabric(const FabricConfig& cfg);

}  // namespace dtdctcp::parsim
