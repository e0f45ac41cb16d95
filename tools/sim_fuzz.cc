// sim_fuzz — property-based fuzzing driver for the packet simulator.
//
// Modes:
//   sim_fuzz [--count N] [--seed S] [--budget-seconds T] [--out FILE]
//       Batch: run N random scenarios (seeds derived from S) with every
//       invariant check enabled. A scenario fails when the checker
//       records a violation or the simulation fails to drain/complete;
//       failures are shrunk and printed as copy-pasteable repro
//       commands (also appended to FILE when --out is given).
//   sim_fuzz --repro SEED [--flows N] [--segments N] [--buffer N] [--shrink]
//       Re-run one scenario (optionally overriding shrinkable
//       dimensions) with verbose output.
//   sim_fuzz --fluid N [--seed S]
//       Cross-validate N stable-regime dumbbells against the fluid
//       model's operating point.
//   sim_fuzz --large N [--seed S]
//       Large-scenario mode: N sharded fabrics (the 256-host stress
//       leaf-spine or a k=4 fat-tree) through the parsim executor with
//       forced per-shard checkers and a run-twice digest-determinism
//       check.
//   sim_fuzz --inject MODE [--seed S]
//       Fault-injection smoke test: commit the named fault (any
//       check::fault_name() in kFaults below, or "all") in
//       otherwise-normal scenarios and exit 0 only if the checker
//       detected it. sched-skip is left to priority_test
//       (SchedLegality.InjectedPriorityInversionIsFlagged), which
//       injects it into a strict-priority queue with both classes
//       backlogged.
//
// Exit codes: 0 all passed / fault detected; 1 failures; 2 usage or
// checks not compiled into this build.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/fuzz.h"
#include "util/rng.h"

namespace {

using namespace dtdctcp;        // NOLINT
using namespace dtdctcp::check;  // NOLINT

double wall_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

void print_violations(const FuzzResult& res, int max_lines) {
  int shown = 0;
  for (const Violation& v : res.violations) {
    if (shown++ >= max_lines) break;
    std::printf("    [%s] t=%.9f %s\n", violation_kind_name(v.kind), v.time,
                v.message.c_str());
  }
  if (res.violation_count > res.violations.size()) {
    std::printf("    ... %llu total violations\n",
                static_cast<unsigned long long>(res.violation_count));
  }
}

bool scenario_failed(const FuzzResult& res) {
  return res.violation_count > 0 || !res.drained || !res.completed;
}

/// Every fault the fuzz scenarios can commit; --inject takes their
/// check::fault_name().
constexpr Fault kFaults[] = {
    Fault::kUncountedDrop, Fault::kFifoSwap,      Fault::kOccupancyLeak,
    Fault::kSpuriousMark,  Fault::kLostDelivery,  Fault::kAlphaRange,
    Fault::kPoolLeak,      Fault::kPoolOverAdmit, Fault::kFluidNegative,
};

/// Runs scenarios until one actually commits the fault, then requires
/// the checker to have flagged it. Scenarios that never reach the
/// injection site (e.g. no buffer overflow for uncounted-drop) are
/// skipped, not failures.
bool smoke_one_fault(Fault fault, std::uint64_t base_seed) {
  const char* name = fault_name(fault);
  CheckConfig cfg;
  cfg.inject = fault;
  cfg.abort_on_violation = false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t seed = derive_seed(base_seed, attempt);
    const FuzzScenario sc = generate_scenario(seed);
    const FuzzResult res = run_scenario(sc, cfg);
    if (!res.fault_fired) continue;
    if (res.violation_count > 0) {
      std::printf("  %-15s detected (seed=%llu, %llu violation(s), "
                  "first kind=%s)\n",
                  name, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(res.violation_count),
                  res.violations.empty()
                      ? "?"
                      : violation_kind_name(res.violations.front().kind));
      return true;
    }
    std::printf("  %-15s NOT DETECTED: fault fired in seed=%llu but no "
                "violation was recorded\n    repro: %s --inject %s\n",
                name, static_cast<unsigned long long>(seed),
                sc.repro_command().c_str(), name);
    return false;
  }
  std::printf("  %-15s NOT EXERCISED: no scenario out of 64 committed the "
              "fault (base seed %llu)\n",
              name, static_cast<unsigned long long>(base_seed));
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: sim_fuzz [--count N] [--seed S] [--budget-seconds T] "
               "[--out FILE]\n"
               "       sim_fuzz --repro SEED [--flows N] [--segments N] "
               "[--buffer N] [--shrink]\n"
               "       sim_fuzz --fluid N [--seed S]\n"
               "       sim_fuzz --large N [--seed S]\n"
               "       sim_fuzz --inject MODE [--seed S]   (MODE:");
  for (Fault f : kFaults) std::fprintf(stderr, " %s", fault_name(f));
  std::fprintf(stderr, " all)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int count = 200;
  std::uint64_t base_seed = 1;
  double budget_seconds = 0.0;
  std::string out_path;
  std::string inject_mode;
  bool have_repro = false;
  std::uint64_t repro_seed = 0;
  bool do_shrink = false;
  int fluid_count = 0;
  int large_count = 0;
  long long ov_flows = -1, ov_segments = -1, ov_buffer = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--count") {
      count = std::atoi(next());
    } else if (arg == "--seed") {
      base_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--budget-seconds") {
      budget_seconds = std::atof(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--repro") {
      have_repro = true;
      repro_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--flows") {
      ov_flows = std::atoll(next());
    } else if (arg == "--segments") {
      ov_segments = std::atoll(next());
    } else if (arg == "--buffer") {
      ov_buffer = std::atoll(next());
    } else if (arg == "--shrink") {
      do_shrink = true;
    } else if (arg == "--fluid") {
      fluid_count = std::atoi(next());
    } else if (arg == "--large") {
      large_count = std::atoi(next());
    } else if (arg == "--inject") {
      inject_mode = next();
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage();
    }
  }

  if (!check::compiled()) {
    std::fprintf(stderr,
                 "sim_fuzz: invariant hooks are not compiled into this build "
                 "(Release without -DDTDCTCP_CHECK=ON); nothing to check\n");
    return 2;
  }

  // ---- Fault-injection smoke -----------------------------------------
  if (!inject_mode.empty()) {
    std::printf("fault-injection smoke (base seed %llu):\n",
                static_cast<unsigned long long>(base_seed));
    bool all_ok = true;
    bool matched = false;
    for (Fault f : kFaults) {
      if (inject_mode == "all" || inject_mode == fault_name(f)) {
        matched = true;
        all_ok = smoke_one_fault(f, base_seed) && all_ok;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "unknown fault mode: %s\n", inject_mode.c_str());
      return usage();
    }
    std::printf("fault-injection smoke: %s\n", all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
  }

  // ---- Fluid cross-validation ----------------------------------------
  if (fluid_count > 0) {
    int failures = 0;
    for (int i = 0; i < fluid_count; ++i) {
      const FluidCrossResult r =
          fluid_cross_check(derive_seed(base_seed, static_cast<std::uint64_t>(i)));
      std::printf("  %s %s\n", r.ok() ? "ok  " : "FAIL", r.detail.c_str());
      if (!r.ok()) ++failures;
    }
    std::printf("fluid cross-validation: %d/%d within tolerance\n",
                fluid_count - failures, fluid_count);
    return failures == 0 ? 0 : 1;
  }

  // ---- Large sharded-fabric scenarios --------------------------------
  if (large_count > 0) {
    int failures = 0;
    std::uint64_t total_events = 0;
    for (int i = 0; i < large_count; ++i) {
      const std::uint64_t seed =
          derive_seed(base_seed, 0x4c41ULL + static_cast<std::uint64_t>(i));
      const FuzzResult res = run_large_scenario(seed);
      total_events += res.events;
      const bool failed = scenario_failed(res);
      std::printf("  %s seed=%llu events=%llu violations=%llu "
                  "ledger=%d completed=%d\n",
                  failed ? "FAIL" : "ok  ",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(res.events),
                  static_cast<unsigned long long>(res.violation_count),
                  res.drained, res.completed);
      if (failed) {
        ++failures;
        print_violations(res, 6);
      }
    }
    std::printf("large-scenario fuzz: %d/%d ok, %llu kernel events\n",
                large_count - failures, large_count,
                static_cast<unsigned long long>(total_events));
    return failures == 0 ? 0 : 1;
  }

  // ---- Single-scenario repro -----------------------------------------
  if (have_repro) {
    FuzzScenario sc = generate_scenario(repro_seed);
    if (ov_flows >= 0) sc.flows = static_cast<int>(ov_flows);
    if (ov_segments >= 0) sc.segments_per_flow = ov_segments;
    if (ov_buffer >= 0) sc.buffer_packets = static_cast<std::size_t>(ov_buffer);
    std::printf("scenario: %s\n", sc.describe().c_str());
    CheckConfig cfg;
    cfg.abort_on_violation = false;
    FuzzResult res = run_scenario(sc, cfg);
    std::printf("drained=%d completed=%d events=%llu injected=%llu "
                "delivered=%llu dropped=%llu retired=%llu\n",
                res.drained, res.completed,
                static_cast<unsigned long long>(res.events),
                static_cast<unsigned long long>(res.totals.injected),
                static_cast<unsigned long long>(res.totals.delivered),
                static_cast<unsigned long long>(res.totals.dropped),
                static_cast<unsigned long long>(res.totals.retired));
    if (scenario_failed(res)) {
      std::printf("FAIL:\n");
      print_violations(res, 10);
      if (do_shrink) {
        const FuzzScenario small = shrink_scenario(sc, cfg);
        std::printf("shrunk: %s\n  repro: %s\n", small.describe().c_str(),
                    small.repro_command().c_str());
      }
      return 1;
    }
    std::printf("PASS (%llu kernel events)\n",
                static_cast<unsigned long long>(res.events));
    return 0;
  }

  // ---- Batch fuzz ----------------------------------------------------
  std::FILE* out = nullptr;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 2;
    }
  }

  int ran = 0;
  int failures = 0;
  std::uint64_t total_events = 0;
  ConservationTotals totals;
  for (int i = 0; i < count; ++i) {
    if (budget_seconds > 0.0 && wall_seconds() > budget_seconds) {
      std::printf("time budget (%.0fs) reached after %d scenarios\n",
                  budget_seconds, ran);
      break;
    }
    const std::uint64_t seed =
        derive_seed(base_seed, static_cast<std::uint64_t>(i));
    const FuzzScenario sc = generate_scenario(seed);
    CheckConfig cfg;
    cfg.abort_on_violation = false;
    const FuzzResult res = run_scenario(sc, cfg);
    ++ran;
    total_events += res.events;
    totals.injected += res.totals.injected;
    totals.delivered += res.totals.delivered;
    totals.dropped += res.totals.dropped;
    if (scenario_failed(res)) {
      ++failures;
      std::printf("FAIL %s\n", sc.describe().c_str());
      if (!res.drained || !res.completed) {
        std::printf("    drained=%d completed=%d (flows stuck?)\n",
                    res.drained, res.completed);
      }
      print_violations(res, 6);
      const FuzzScenario small = shrink_scenario(sc, cfg);
      std::printf("  repro: %s\n", small.repro_command().c_str());
      if (out != nullptr) {
        std::fprintf(out, "seed=%llu repro: %s\n",
                     static_cast<unsigned long long>(seed),
                     small.repro_command().c_str());
        std::fflush(out);
      }
    } else if ((i + 1) % 25 == 0) {
      std::printf("  %d/%d scenarios ok (%.1fs, %llu kernel events)\n", i + 1,
                  count, wall_seconds(),
                  static_cast<unsigned long long>(total_events));
    }
  }
  if (out != nullptr) std::fclose(out);
  // Kernel events count scheduling work and move with kernel changes;
  // the ledger totals pin behaviour (zero when checks are compiled out).
  std::printf("fuzz: %d scenarios, %d failure(s), %llu kernel events, "
              "injected=%llu delivered=%llu dropped=%llu\n",
              ran, failures, static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(totals.injected),
              static_cast<unsigned long long>(totals.delivered),
              static_cast<unsigned long long>(totals.dropped));
  return failures == 0 ? 0 : 1;
}
