// The repository benchmark: one workload per invocation.
//
//   perfbench --workload dumbbell|fattree|hybrid --seed N --seconds S
//             --trace 0|1
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics through the library entry
// point; --trace 1 alternates untraced entry-point runs with traced
// rebuilds and reports the per-layer breakdown. Every run's exact
// fingerprint is checked against the invocation's first run of the same
// input; a mismatch or a failed output check counts as a failed
// operation. The
// last stdout line is the JSON result; README.md defines every metric.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "scenarios.h"

namespace {

using perfbench::Metric;
using perfbench::RunOutput;
using perfbench::Scenario;
using perfbench::TracedOutput;
using Clock = std::chrono::steady_clock;

#ifdef DTDCTCP_CHECK_COMPILED
constexpr bool kCheckCompiled = true;
#else
constexpr bool kCheckCompiled = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Index of the median element (lower median for even counts).
std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx[(idx.size() - 1) / 2];
}

/// This process's peak resident set (VmHWM), in MiB. Unlike
/// getrusage's ru_maxrss, VmHWM belongs to the current address space,
/// so the image of whatever process forked this one is not counted.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Confines the process, and every thread it starts later, to the
/// highest-numbered CPU it may use; returns that CPU (-1 if unchanged).
/// On a shared VM a thread that blocks lets its vCPU halt, and waking it
/// again from another vCPU can take milliseconds: a 2-shard run spread
/// over two vCPUs varied 3x from repetition to repetition, while the
/// same run confined to one CPU stayed as steady as a serial one. Only
/// the end-to-end mode pins: on one CPU the shards time-slice inside a
/// window, which would charge one shard's work to the other's spans.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

void print_build_record(int cpu) {
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::printf(
      "{\"build\": {\"build_type\": %s, \"check_hooks_compiled\": %s, "
      "\"compiler\": %s, \"release_without_checks\": %s, "
      "\"pinned_cpu\": %d}}\n",
      json_str(PERFBENCH_BUILD_TYPE).c_str(), kCheckCompiled ? "true" : "false",
      json_str(__VERSION__).c_str(),
      release && !kCheckCompiled ? "true" : "false", cpu);
  if (!release || kCheckCompiled) {
    std::printf(
        "WARNING: not a Release build without check hooks; results are not "
        "comparable\n");
  }
}

/// Counts attempted and failed operations; prints each failure.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& workload, const std::string& what,
              const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    std::printf("FAILED %s %s: %s\n", workload.c_str(), what.c_str(),
                problem.c_str());
  }
};

std::string compare(const std::string& got, const std::string& want,
                    const std::string& problem) {
  if (!problem.empty()) return problem;
  if (got != want) return "fingerprint differs from the reference run";
  return "";
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_str(metrics[i].name) +
           ": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_samples(const char* name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
  };
  std::string all;
  if (v.size() <= 100) {
    for (const double x : v) all += (all.empty() ? "" : ", ") + num(x);
  }
  std::printf(
      "{\"samples\": {\"metric\": \"%s\", \"n\": %zu, \"min\": %s, "
      "\"p25\": %s, \"median\": %s, \"p75\": %s, \"max\": %s, "
      "\"values\": [%s]}}\n",
      name, v.size(), num(v.front()).c_str(), num(q(0.25)).c_str(),
      num(median(v)).c_str(), num(q(0.75)).c_str(), num(v.back()).c_str(),
      all.c_str());
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int measure_end_to_end(const Scenario& sc, double seconds) {
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Ledger ledger;

  // Warm-up run: fills allocator arenas and caches, and fixes the
  // reference fingerprint every later run must reproduce.
  const RunOutput ref = perfbench::run_entry(sc, false);
  ledger.record(sc.workload, "reference run", ref.problem);
  std::printf("{\"fingerprint\": {\"workload\": %s, \"seed\": %llu, "
              "\"value\": %s}}\n",
              json_str(sc.workload).c_str(),
              static_cast<unsigned long long>(sc.seed),
              json_str(ref.fingerprint).c_str());

  // Set-up time. Zero-length runs are short, so they are timed in
  // batches of about 5 ms and the median per-call time is reported.
  std::vector<double> setup;
  if (!perfbench::setup_from_full_run(sc.workload)) {
    const RunOutput zero_ref = perfbench::run_entry(sc, true);
    ledger.record(sc.workload, "zero-length run", zero_ref.problem);
    const int batch = std::clamp(
        static_cast<int>(std::ceil(0.005 / std::max(zero_ref.wall_s, 1e-7))),
        1, 1000);
    const double setup_budget = 0.1 * seconds;
    const double setup_start = elapsed();
    while (setup.size() < 15 || elapsed() - setup_start < setup_budget) {
      double wall = 0.0;
      for (int i = 0; i < batch; ++i) {
        const RunOutput z = perfbench::run_entry(sc, true);
        wall += z.wall_s;
        ledger.record(sc.workload, "zero-length run",
                      compare(z.fingerprint, zero_ref.fingerprint, z.problem));
      }
      setup.push_back(wall / batch);
      if (setup.size() >= 1000) break;
    }
  }

  // Timed cycles: one entry-point call per input of the run's mix. The
  // first cycle fixes the reference fingerprint of inputs not yet seen;
  // every later call must reproduce its input's reference exactly.
  const std::size_t inputs = perfbench::inputs_per_run(sc.workload);
  const std::size_t min_cycles = inputs == 1 ? 3 : 2;
  std::vector<std::string> refs(inputs);
  refs[0] = ref.fingerprint;
  std::vector<double> pps, cpu_us;
  double last_cycle = 0.0;
  // Stop at the cycle boundary nearest to the time budget.
  while (pps.size() < min_cycles || elapsed() + 0.5 * last_cycle < seconds) {
    const double cycle_start = elapsed();
    std::uint64_t pkts = 0;
    double wall = 0.0, cpu = 0.0;
    for (std::size_t j = 0; j < inputs; ++j) {
      Scenario in = sc;
      in.input = j;
      const RunOutput r = perfbench::run_entry(in, false);
      if (refs[j].empty()) refs[j] = r.fingerprint;
      ledger.record(sc.workload, "timed run",
                    compare(r.fingerprint, refs[j], r.problem));
      pkts += r.pkts;
      wall += r.wall_s;
      cpu += r.cpu_s;
      if (r.setup_s >= 0.0) setup.push_back(r.setup_s);
    }
    if (pkts == 0) break;
    pps.push_back(static_cast<double>(pkts) / wall);
    cpu_us.push_back(1e6 * cpu / static_cast<double>(pkts));
    last_cycle = elapsed() - cycle_start;
  }
  if (pps.empty() || setup.empty()) {
    std::printf("FAILED %s: no measurement\n", sc.workload.c_str());
    return 1;
  }
  print_samples("pkts_per_s", pps);
  print_samples("cpu_us_per_pkt", cpu_us);
  print_samples("setup_s", setup);

  print_result(ledger, {{"pkts_per_s", median(pps), "pkts/s"},
                       {"cpu_us_per_pkt", median(cpu_us), "us"},
                       {"setup_s", median(setup), "s"},
                       {"peak_rss_mb", peak_rss_mib(), "MiB"}});
  return 0;
}

// ---------------------------------------------------------------------
// --trace 1: per-layer breakdown from traced rebuilds.

/// Exact metrics of `t` that differ from `first`; empty when all match.
std::string exact_mismatch(const TracedOutput& t, const TracedOutput& first) {
  for (std::size_t i = 0; i < t.layers.size(); ++i) {
    if (t.layers[i].exact && t.layers[i].value != first.layers[i].value) {
      return "exact count " + t.layers[i].name + " did not repeat";
    }
  }
  return "";
}

void print_breakdown(const Scenario& sc, const TracedOutput& t) {
  std::printf("per-layer breakdown, workload %s (traced run %.6f s of "
              "thread time):\n",
              sc.workload.c_str(), t.run_s);
  for (const Metric& m : t.layers) {
    std::printf("  %-28s %18.6f %-10s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.exact ? " exact" : "");
  }
  std::printf("  seams not wrapped: %s\n",
              perfbench::unwrapped_seams(sc.workload).c_str());
}

int measure_layers(const Scenario& sc, double seconds) {
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Ledger ledger;
  const RunOutput ref = perfbench::run_entry(sc, false);
  ledger.record(sc.workload, "reference run", ref.problem);

  std::vector<double> untraced_wall, traced_wall;
  std::vector<TracedOutput> traced;
  while (untraced_wall.size() < 2 || elapsed() < seconds) {
    const RunOutput u = perfbench::run_entry(sc, false);
    ledger.record(sc.workload, "untraced run",
                  compare(u.fingerprint, ref.fingerprint, u.problem));
    untraced_wall.push_back(u.wall_s);

    TracedOutput t = perfbench::run_traced(sc);
    std::string problem = compare(t.fingerprint, ref.fingerprint, t.problem);
    if (problem.empty() && !traced.empty()) {
      problem = exact_mismatch(t, traced.front());
    }
    ledger.record(sc.workload, "traced run", problem);
    if (!t.problem.empty() || t.layers.empty()) continue;
    traced_wall.push_back(t.wall_s);
    traced.push_back(std::move(t));
  }
  if (traced.empty()) {
    std::printf("FAILED %s: no traced measurement\n", sc.workload.c_str());
    return 1;
  }

  // Report one whole traced run (the median by run time), so its rows
  // sum to its own run time exactly.
  std::vector<double> run_s;
  for (const TracedOutput& t : traced) run_s.push_back(t.run_s);
  const TracedOutput& chosen = traced[median_index(run_s)];
  print_breakdown(sc, chosen);

  std::vector<Metric> metrics = chosen.layers;
  metrics.push_back({"trace.overhead_frac",
                     median(traced_wall) / median(untraced_wall) - 1.0,
                     "ratio"});
  print_result(ledger, metrics);
  return 0;
}

// ---------------------------------------------------------------------
// --selftest: short runs that check the tracing itself.

int selftest() {
  int failures = 0;
  const auto check = [&](const std::string& what, bool ok) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const char* w : {"dumbbell", "fattree", "hybrid"}) {
    const std::string name = w;
    const Scenario sc{.workload = name, .seed = 7, .scale = 0.1};
    const RunOutput a = perfbench::run_entry(sc, false);
    const RunOutput b = perfbench::run_entry(sc, false);
    const RunOutput z = perfbench::run_entry(sc, true);
    const TracedOutput t = perfbench::run_traced(sc);
    check(name + ": entry point passes its output checks",
          a.problem.empty() && z.problem.empty());
    check(name + ": fingerprint repeats", a.fingerprint == b.fingerprint);
    check(name + ": traced fingerprint equals untraced",
          t.problem.empty() && t.fingerprint == a.fingerprint);
    std::map<std::string, double> m;
    for (const Metric& x : t.layers) m[x.name] = x.value;
    check(name + ": every per-layer metric reported",
          m.size() + 1 == perfbench::layer_metric_names().size());
    check(name + ": layer self times sum to the traced run time",
          t.run_s > 0.0 &&
              std::fabs(t.layer_sum_s - t.run_s) <= 1e-9 * t.run_s + 1e-12);
    check(name + ": remainder sim.self_ns_per_pkt is positive",
          m["sim.self_ns_per_pkt"] > 0.0);
    check(name + ": sim.clamps == 0", m["sim.clamps"] == 0.0);
    check(name + ": no row is negative",
          m["parsim.sync_s"] >= 0.0 && m["queue.self_ns_per_pkt"] >= 0.0 &&
              m["tcp.self_ns_per_pkt"] >= 0.0);

    const auto all_zero = [&](const std::string& prefix) {
      for (const auto& [k, v] : m) {
        if (k.rfind(prefix, 0) == 0 && v != 0.0) return false;
      }
      return true;
    };
    const auto idle = [&](const std::string& prefix) {
      check(name + ": " + prefix + "* idle", all_zero(prefix));
    };
    const auto active = [&](const std::string& metric) {
      check(name + ": " + metric + " > 0", m[metric] > 0.0);
    };
    active("queue.calls_per_pkt");
    if (name == "dumbbell") {
      idle("parsim.");
      idle("route.");
      idle("fluid.");
      idle("hybrid.");
      active("stats.monitor_calls_per_pkt");
      active("tcp.deliver_calls_per_pkt");
    } else if (name == "fattree") {
      idle("fluid.");
      idle("hybrid.");
      idle("stats.monitor_");
      active("parsim.rounds");
      active("route.rebuilds");
      active("tcp.deliver_calls_per_pkt");
    } else {
      idle("parsim.");
      idle("route.");
      active("hybrid.ticks");
      active("fluid.ns_per_tick");
      active("stats.monitor_calls_per_pkt");
    }
  }
  std::printf("selftest: %s (%d failing checks)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dumbbell|fattree|hybrid --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc;
  double seconds = 10.0;
  int trace = 0;
  bool run_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      run_selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      sc.workload = v;
    } else if (a == "--seed") {
      sc.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0) || seconds > 150.0) {
        usage("--seconds takes a number in (0, 150]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      trace = v == "1" ? 1 : 0;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  print_build_record(trace == 0 && !run_selftest ? pin_to_one_cpu() : -1);
  try {
    if (run_selftest) return selftest();
    if (!perfbench::known_workload(sc.workload)) {
      usage(("unknown workload '" + sc.workload + "'").c_str());
    }
    return trace == 1 ? measure_layers(sc, seconds)
                      : measure_end_to_end(sc, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
