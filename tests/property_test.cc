// Property-based tests for the invariant checker (src/check).
//
// Three families:
//  * a seeded sweep of random scenarios run with every check enabled
//    and a full conservation audit at the end — the library behind
//    tools/sim_fuzz, pinned to a fixed seed set so CI is deterministic;
//  * cross-validation of the packet simulator against the fluid model's
//    operating point in the stable regime;
//  * fault injection: each deliberate fault the instrumented code can
//    commit must be detected by the checker, with the expected
//    violation kind, and shrinking must preserve the failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/checker.h"
#include "check/fuzz.h"
#include "util/rng.h"

namespace dtdctcp::check {
namespace {

#define SKIP_WITHOUT_HOOKS()                                      \
  do {                                                            \
    if (!compiled()) {                                            \
      GTEST_SKIP() << "invariant hooks not compiled (Release)";   \
    }                                                             \
  } while (0)

TEST(PropertyFuzz, RandomScenariosSatisfyAllInvariants) {
  SKIP_WITHOUT_HOOKS();
  constexpr std::uint64_t kBaseSeed = 0x70726f70;  // fixed: deterministic CI
  constexpr int kScenarios = 30;
  for (int i = 0; i < kScenarios; ++i) {
    const std::uint64_t seed = derive_seed(kBaseSeed, i);
    const FuzzScenario sc = generate_scenario(seed);
    CheckConfig cfg;
    cfg.abort_on_violation = false;
    const FuzzResult res = run_scenario(sc, cfg);
    EXPECT_TRUE(res.drained) << sc.describe();
    EXPECT_TRUE(res.completed) << sc.describe();
    EXPECT_EQ(res.violation_count, 0u)
        << sc.describe() << "\nfirst: "
        << (res.violations.empty() ? "?" : res.violations.front().message)
        << "\nrepro: " << sc.repro_command();
    EXPECT_GT(res.events, 0u);
    // The audit really saw traffic and closed the books.
    EXPECT_GT(res.totals.injected, 0u) << sc.describe();
    EXPECT_EQ(res.totals.in_flight, 0u) << sc.describe();
    EXPECT_EQ(res.totals.injected, res.totals.delivered + res.totals.dropped +
                                       res.totals.retired)
        << sc.describe();
  }
}

TEST(PropertyFuzz, ScenarioGenerationIsDeterministic) {
  const FuzzScenario a = generate_scenario(1234);
  const FuzzScenario b = generate_scenario(1234);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.segments_per_flow, b.segments_per_flow);
  EXPECT_EQ(a.buffer_packets, b.buffer_packets);
  // A fresh seed changes at least the one-line description.
  EXPECT_NE(a.describe(), generate_scenario(1235).describe());
}

TEST(PropertyFuzz, DescribePrintsPoolOnlyForRigsThatInstallIt) {
  // Seeds 13 (leaf-spine) and 15 (fat-tree) draw a shared-buffer pool
  // that fabric rigs never install; seeds 9 (incast) and 10 (dumbbell)
  // draw one their rigs do install.
  for (const std::uint64_t seed : {13, 15}) {
    const FuzzScenario sc = generate_scenario(seed);
    ASSERT_GT(sc.pool_capacity_packets, 0u);
    EXPECT_EQ(sc.describe().find("pool="), std::string::npos)
        << sc.describe();
  }
  for (const std::uint64_t seed : {9, 10}) {
    const FuzzScenario sc = generate_scenario(seed);
    EXPECT_NE(sc.describe().find("pool="), std::string::npos)
        << sc.describe();
  }
}

TEST(PropertyFuzz, ReproCommandEncodesShrunkenDimensions) {
  FuzzScenario sc = generate_scenario(77);
  EXPECT_EQ(sc.repro_command(), "sim_fuzz --repro 77");
  sc.flows = 1;
  sc.segments_per_flow = 3;
  EXPECT_EQ(sc.repro_command(),
            "sim_fuzz --repro 77 --flows 1 --segments 3");
}

TEST(PropertyFluid, PacketSimMatchesFluidOperatingPoint) {
  SKIP_WITHOUT_HOOKS();
  for (std::uint64_t i = 0; i < 4; ++i) {
    const FluidCrossResult r = fluid_cross_check(derive_seed(0xf1d, i));
    EXPECT_EQ(r.violation_count, 0u) << r.detail;
    EXPECT_TRUE(r.queue_ok) << r.detail;
    EXPECT_TRUE(r.utilization_ok) << r.detail;
  }
}

// ---- Fault injection -------------------------------------------------

struct FaultCase {
  Fault fault;
  ViolationKind expected;
};

class FaultDetection : public ::testing::TestWithParam<FaultCase> {};

/// Finds a seed whose scenario actually commits the fault, then
/// requires the checker to flag it with the expected kind.
TEST_P(FaultDetection, InjectedFaultIsDetected) {
  SKIP_WITHOUT_HOOKS();
  const FaultCase fc = GetParam();
  CheckConfig cfg;
  cfg.inject = fc.fault;
  cfg.abort_on_violation = false;
  bool exercised = false;
  for (int attempt = 0; attempt < 64 && !exercised; ++attempt) {
    const std::uint64_t seed = derive_seed(0xfa17, attempt);
    const FuzzScenario sc = generate_scenario(seed);
    const FuzzResult res = run_scenario(sc, cfg);
    if (!res.fault_fired) continue;
    exercised = true;
    EXPECT_GT(res.violation_count, 0u)
        << fault_name(fc.fault) << " fired in " << sc.describe()
        << " but went undetected";
    EXPECT_TRUE([&] {
      for (const Violation& v : res.violations) {
        if (v.kind == fc.expected) return true;
      }
      return false;
    }()) << fault_name(fc.fault) << ": expected a "
         << violation_kind_name(fc.expected) << " violation; first was "
         << (res.violations.empty()
                 ? "none"
                 : violation_kind_name(res.violations.front().kind));
  }
  EXPECT_TRUE(exercised) << "no scenario committed " << fault_name(fc.fault);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultDetection,
    ::testing::Values(
        FaultCase{Fault::kUncountedDrop, ViolationKind::kCounter},
        FaultCase{Fault::kFifoSwap, ViolationKind::kFifoOrder},
        FaultCase{Fault::kOccupancyLeak, ViolationKind::kOccupancy},
        FaultCase{Fault::kSpuriousMark, ViolationKind::kEcnRule},
        FaultCase{Fault::kLostDelivery, ViolationKind::kLeak},
        FaultCase{Fault::kAlphaRange, ViolationKind::kTcpRange},
        FaultCase{Fault::kPoolLeak, ViolationKind::kPoolConservation},
        FaultCase{Fault::kPoolOverAdmit, ViolationKind::kPoolLegality}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      std::string name = fault_name(info.param.fault);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FaultShrink, ShrinkingPreservesTheFailure) {
  SKIP_WITHOUT_HOOKS();
  CheckConfig cfg;
  cfg.inject = Fault::kOccupancyLeak;  // fires on any enqueue: robust target
  cfg.abort_on_violation = false;
  // Find a failing scenario first.
  FuzzScenario failing;
  bool found = false;
  for (int attempt = 0; attempt < 64 && !found; ++attempt) {
    failing = generate_scenario(derive_seed(0x5417, attempt));
    const FuzzResult res = run_scenario(failing, cfg);
    found = res.fault_fired && res.violation_count > 0;
  }
  ASSERT_TRUE(found);

  const FuzzScenario small = shrink_scenario(failing, cfg);
  // The shrunken scenario is no larger and still fails.
  EXPECT_LE(small.flows, failing.flows);
  EXPECT_LE(small.segments_per_flow, failing.segments_per_flow);
  EXPECT_LE(small.buffer_packets, failing.buffer_packets);
  EXPECT_LT(small.flows * small.segments_per_flow,
            failing.flows * failing.segments_per_flow);
  const FuzzResult res = run_scenario(small, cfg);
  EXPECT_GT(res.violation_count, 0u) << small.describe();
  // And its repro command carries the shrunken dimensions explicitly.
  EXPECT_NE(small.repro_command().find("--"), std::string::npos);
}

TEST(FaultInjection, NoFaultMeansNoViolations) {
  SKIP_WITHOUT_HOOKS();
  // The same seeds the fault tests use, with injection off: clean.
  CheckConfig cfg;
  cfg.abort_on_violation = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const FuzzScenario sc = generate_scenario(derive_seed(0xfa17, attempt));
    const FuzzResult res = run_scenario(sc, cfg);
    EXPECT_FALSE(res.fault_fired);
    EXPECT_EQ(res.violation_count, 0u) << sc.describe();
  }
}

TEST(CheckScope, EnvGatedDefaultScopeInstallsNothingWhenUnset) {
  // Default-constructed scopes follow the DTDCTCP_CHECK env variable;
  // in the test environment it is normally unset, so no checker runs
  // (stress/reproduction tests construct one unconditionally).
  if (env_requested()) GTEST_SKIP() << "DTDCTCP_CHECK set in environment";
  CheckScope scope;
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(current(), nullptr);
}

TEST(CheckScope, ExplicitConfigAlwaysInstalls) {
  CheckConfig cfg;
  cfg.abort_on_violation = false;
  CheckScope scope(cfg);
  EXPECT_TRUE(scope.active());
  if (compiled()) {
    EXPECT_EQ(current(), scope.checker());
  }
}

}  // namespace
}  // namespace dtdctcp::check
