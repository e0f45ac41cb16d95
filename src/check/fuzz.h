// Property-based fuzz harness for the packet simulator.
//
// A FuzzScenario is a fully explicit description of one randomized
// short simulation: topology (dumbbell / leaf-spine / incast /
// fat-tree), flow count, link rates, RTT, buffer size, marking rule,
// TCP mode and options — every field derived
// deterministically from a single seed by generate_scenario(). Running
// a scenario installs the invariant Checker (check/checker.h) with all
// checks enabled, drives the finite flows to completion, and audits
// conservation with Checker::finalize() once the event queue drains.
//
// Because every dimension is an explicit field, a failing seed can be
// shrunk: shrink_scenario() halves flows / segments / buffer while the
// failure persists and the result prints as a copy-pasteable
// `sim_fuzz --repro <seed> [--flows N ...]` command line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.h"
#include "queue/marking_rule.h"
#include "util/units.h"

namespace dtdctcp::check {

enum class FuzzTopology : std::uint8_t {
  kDumbbell,
  kLeafSpine,
  kIncast,
  kFatTree,  ///< k-ary fat-tree (sim/fabric.h) with balanced ECMP
};

const char* fuzz_topology_name(FuzzTopology t);

struct FuzzScenario {
  std::uint64_t seed = 1;
  FuzzTopology topology = FuzzTopology::kDumbbell;

  int flows = 8;                      ///< connections (incast: fan-in)
  std::int64_t segments_per_flow = 100;
  double bottleneck_gbps = 10.0;
  double edge_gbps = 10.0;
  double rtt_us = 100.0;              ///< propagation RTT, dumbbell legs
  std::size_t buffer_packets = 0;     ///< bottleneck limit; 0 = unlimited

  /// drop-tail, threshold, hysteresis or CoDel, in packets or bytes
  queue::MarkingRule marking = queue::MarkingRule::dctcp(40.0);

  int tcp_mode = 2;                   ///< tcp::CcMode (default kDctcp)
  bool sack = false;
  bool pacing = false;
  bool delayed_ack = false;
  double start_spread_us = 500.0;     ///< sender start-time stagger
  double sim_cap_s = 30.0;            ///< virtual-time safety cap

  // Shared-buffer pool (dumbbell / incast only; fabric rigs keep
  // per-port limits). 0 capacity = no pool.
  std::size_t pool_capacity_packets = 0;  ///< pool size (MTU packets)
  double pool_alpha = 0.0;                ///< DT alpha; 0 = static carve
  std::size_t pool_headroom_packets = 0;  ///< guaranteed per-port reserve
  bool pool_ecn = false;                  ///< ECN from shared occupancy

  // Fat-tree dimensions (topology == kFatTree only). Appended after the
  // pool block so every earlier dimension of a given seed is unchanged
  // from pre-fabric builds.
  std::size_t fat_k = 4;     ///< pod count (even: 4 or 6)
  bool fat_oversub = false;  ///< 2x hosts per edge (oversubscribed edge tier)
  int priority_classes = 0;  ///< 0/1 = single queue; 2..3 = multi-queue
  int sched_policy = 0;      ///< 0 = strict priority, 1 = WRR
  double fail_at_us = -1.0;     ///< link failure time; < 0 = none
  double recover_at_us = -1.0;  ///< recovery time; < 0 = stays down
  std::size_t fail_link = 0;    ///< failed link index (mod link count)

  // Hybrid fluid background (dumbbell threshold/hysteresis only).
  // Appended after the fat-tree block, same append-only discipline:
  // every earlier dimension of a given seed is unchanged from
  // pre-hybrid builds. When > 0, a hybrid::FluidBackground aggregate
  // attaches to the bottleneck and the checker's fluid_coupled hook
  // audits every published (occupancy, rate) gauge pair.
  double hybrid_flows = 0.0;       ///< 0 = no fluid aggregate
  double hybrid_horizon_us = 0.0;  ///< coupling window, microseconds

  /// One-line human-readable summary.
  std::string describe() const;
  /// Copy-pasteable `sim_fuzz` invocation reproducing this scenario:
  /// the seed, plus explicit --flows/--segments/--buffer overrides for
  /// any dimension that differs from what the seed generates (i.e.
  /// after shrinking).
  std::string repro_command() const;
};

/// Derives every scenario dimension from `seed` (deterministic).
FuzzScenario generate_scenario(std::uint64_t seed);

struct FuzzResult {
  bool checks_compiled = false;  ///< hook call sites present in this build
  bool drained = false;          ///< event queue empty at the end
  bool completed = false;        ///< every finite flow completed
  bool fault_fired = false;      ///< the injected fault was committed
  std::uint64_t events = 0;      ///< kernel events processed
  std::uint64_t violation_count = 0;
  std::vector<Violation> violations;
  ConservationTotals totals;
};

/// Builds the scenario's topology, runs it to completion under a
/// CheckScope configured from `cfg`, finalizes the conservation audit
/// when the simulation drained, and returns what the checker saw.
FuzzResult run_scenario(const FuzzScenario& sc, const CheckConfig& cfg);

/// Deterministic shrinking: repeatedly halves flows, segments, and
/// buffer (in that order, round-robin) while the scenario still
/// produces at least one violation under `cfg` (re-run each attempt
/// with abort_on_violation forced off). Returns the smallest failing
/// scenario found; `failing` itself if no smaller one still fails.
FuzzScenario shrink_scenario(FuzzScenario failing, const CheckConfig& cfg,
                             int max_attempts = 48);

/// Large-scenario mode (`sim_fuzz --large`): runs a sharded fabric
/// through the parsim executor — about half the seeds the stress-preset
/// leaf-spine (sim::LeafSpineConfig::stress, 256 hosts), the rest an
/// oversubscribed k=4 fat-tree with optional priority classes and link
/// failures — with a seed-derived shard count (1, 2, or 4), per-shard
/// invariant checkers forced on, and the run repeated once to compare
/// result digests. A digest mismatch (nondeterminism)
/// or an open cross-shard mailbox ledger counts as a violation on top
/// of anything the checkers flagged.
FuzzResult run_large_scenario(std::uint64_t seed);

/// Packet-simulator vs fluid-model cross-validation.
struct FluidCrossResult {
  double sim_queue_mean = 0.0;   ///< packets, measured window
  double sim_utilization = 0.0;
  double fluid_queue = 0.0;      ///< operating-point q0, packets
  bool queue_ok = false;         ///< sim queue within tolerance of q0
  bool utilization_ok = false;   ///< fluid predicts ~1; sim must be close
  std::uint64_t violation_count = 0;  ///< invariant violations during the run
  std::string detail;            ///< one-line report
  bool ok() const { return queue_ok && utilization_ok && violation_count == 0; }
};

/// Draws a stable-regime DCTCP/DT-DCTCP dumbbell from `seed` (large
/// enough K that the fluid operating point is valid: queue never
/// empties, utilization ~ 1), runs the packet simulator under the
/// invariant checker, and compares steady-state queue mean and
/// utilization against fluid::operating_point with generous tolerances.
FluidCrossResult fluid_cross_check(std::uint64_t seed);

}  // namespace dtdctcp::check
