// The benchmark's three workloads: each runs once through the library
// entry point users call (untraced) and once rebuilt from the public
// building blocks with timing decorators at the reachable seams
// (traced). Both report the same exact fingerprint of the simulated
// outcome, which is how the traced run proves it simulated the same
// thing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Scenario {
  std::string workload;  ///< "dumbbell", "fattree" or "hybrid"
  std::uint64_t seed = 1;
  /// Which of the run's inputs (0 .. inputs_per_run - 1) to simulate;
  /// each input is a distinct scenario seed drawn from `seed`.
  std::size_t input = 0;
  /// Multiplies the simulated length (1 = the benchmark's definition;
  /// the self-test runs shorter).
  double scale = 1.0;
};

bool known_workload(const std::string& name);

/// How many distinct inputs one benchmark run cycles through. hybrid's
/// open-loop heavy-tailed arrivals make a single input's packet count
/// swing by tens of percent from seed to seed, so a run measures a
/// fixed mix of inputs instead; the closed-loop workloads need one.
std::size_t inputs_per_run(const std::string& workload);

/// One untraced entry-point call.
struct RunOutput {
  std::string fingerprint;  ///< exact outcome; equal runs print equal
  std::string problem;      ///< empty when every output check passed
  std::uint64_t pkts = 0;   ///< simulated packets the entry point reports
  /// Set-up time derived from the full call (fattree: call time minus
  /// FabricResult::wall_seconds); < 0 when the workload measures set-up
  /// with a zero-length window instead.
  double setup_s = -1.0;
  double wall_s = 0.0;  ///< whole entry-point call
  double cpu_s = 0.0;   ///< process CPU time (all threads) during the call
};

/// Runs the workload's entry point. `zero_length` runs the same entry
/// point with a zero-length traffic window (set-up and tear-down only).
RunOutput run_entry(const Scenario& sc, bool zero_length);

/// Whether setup_s comes from the full run rather than a zero-length one.
bool setup_from_full_run(const std::string& workload);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;  ///< deterministic work count: must repeat exactly
};

/// One traced rebuild of the workload.
struct TracedOutput {
  std::string fingerprint;
  std::string problem;
  double wall_s = 0.0;      ///< whole composed scenario
  double run_s = 0.0;       ///< traffic phase, thread-seconds
  double layer_sum_s = 0.0; ///< sum of every row charged to the run
  std::vector<Metric> layers;  ///< per-layer metrics (no overhead row)
};

TracedOutput run_traced(const Scenario& sc);

/// Names of every per-layer metric, in report order, with units.
std::vector<std::pair<std::string, std::string>> layer_metric_names();

/// Seams that could not be wrapped on this workload (their time stays
/// in sim.self_ns_per_pkt); one line of text.
std::string unwrapped_seams(const std::string& workload);

}  // namespace perfbench
