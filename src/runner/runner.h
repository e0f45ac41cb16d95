// Parallel experiment runner: a fixed-size thread pool that executes a
// vector of independent simulation jobs.
//
// Every parameter study in this repository (the Fig. 10/11/12 flow
// sweep, the ablation grids, the stability-margin tables) is a set of
// mutually independent single-threaded simulations: each job builds its
// own `sim::Simulator` from a config plus a deterministically derived
// per-job seed and touches no shared mutable state. The runner exploits
// exactly that shape:
//
//   * jobs are dispatched to a fixed pool of worker threads via an
//     atomic job counter (no work stealing, no queues to tune);
//   * results are collected *by job index*, so the caller's output is
//     byte-identical to a serial run regardless of completion order;
//   * a progress callback (serialized by the runner) replaces ad-hoc
//     `fprintf(stderr, ...)` lines inside sweep loops;
//   * wall-clock and per-job timing telemetry come back to the caller.
//
// Worker count resolution (first match wins):
//   1. `RunnerOptions::jobs` when non-zero,
//   2. the process-wide override (`set_jobs_override`, e.g. from a
//      `--jobs` command-line flag),
//   3. the `DTDCTCP_JOBS` environment variable,
//   4. `std::thread::hardware_concurrency()`.
// A resolved value of 1 runs every job inline on the calling thread —
// the legacy serial path, with no threads created at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace dtdctcp::runner {

/// Completion report for one job, delivered to the progress callback.
/// Callbacks are invoked under the runner's lock: they never race each
/// other, but they should stay cheap (print a line, bump a bar).
struct Progress {
  std::size_t completed = 0;    ///< jobs finished so far (including this)
  std::size_t total = 0;        ///< total jobs submitted
  std::size_t index = 0;        ///< index of the job that just finished
  double job_seconds = 0.0;     ///< wall time of that job
};

using ProgressFn = std::function<void(const Progress&)>;

struct RunnerOptions {
  /// Worker threads; 0 = resolve per the precedence above.
  std::size_t jobs = 0;
  /// Invoked once per completed job (serialized). May be empty.
  ProgressFn progress;
};

/// Timing telemetry for one `run_indexed`/`run_jobs` call.
struct RunnerTelemetry {
  std::size_t jobs = 0;             ///< jobs executed
  std::size_t workers = 0;          ///< worker threads actually used
  double wall_seconds = 0.0;        ///< end-to-end wall time
  double job_seconds_total = 0.0;   ///< sum of per-job wall times
  double job_seconds_max = 0.0;     ///< slowest single job
  /// job_seconds_total / wall_seconds: effective parallelism achieved
  /// (1.0 on the serial path, approaches `workers` when jobs dominate).
  double speedup() const {
    return wall_seconds > 0.0 ? job_seconds_total / wall_seconds : 0.0;
  }
};

/// Sets/clears the process-wide worker-count override (0 clears). Used
/// by `--jobs` style flags; thread-safe.
void set_jobs_override(std::size_t jobs);

/// Resolves the worker count per the precedence above (>= 1).
std::size_t default_jobs();

/// Executes `body(0) .. body(count-1)`, each exactly once, across the
/// resolved number of workers. Blocks until all jobs finish. The first
/// exception thrown by a job is rethrown here after the pool drains.
/// `body` must be safe to call concurrently from multiple threads for
/// distinct indices.
void run_indexed(std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 const RunnerOptions& opts = {},
                 RunnerTelemetry* telemetry = nullptr);

/// Typed convenience wrapper: runs `fn(i)` for each index and returns
/// the results ordered by index — the caller prints them exactly as a
/// serial loop would have.
template <typename Fn>
auto run_jobs(std::size_t count, Fn&& fn, const RunnerOptions& opts = {},
              RunnerTelemetry* telemetry = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> results(count);
  run_indexed(
      count, [&](std::size_t i) { results[i] = fn(i); }, opts, telemetry);
  return results;
}

/// Options carrying the standard progress line on stderr:
///   [tag] 12/57 jobs done (last 0.82s)
/// Progress order follows completion, so it may interleave differently
/// between runs; output printed from the ordered results stays
/// byte-identical for any worker count.
RunnerOptions stderr_progress(const char* tag);

/// Prints the telemetry summary on stderr: wall clock, aggregate job
/// time, parallel speedup and the slowest job.
void print_telemetry(const char* tag, const RunnerTelemetry& tm);

/// `run_jobs` with the standard stderr progress line and telemetry
/// summary under `tag`: the one call every sweep-shaped bench and the
/// CLI's `sweep` make.
template <typename Fn>
auto sweep(const char* tag, std::size_t count, Fn&& fn) {
  RunnerTelemetry tm;
  auto results = run_jobs(count, std::forward<Fn>(fn), stderr_progress(tag),
                          &tm);
  print_telemetry(tag, tm);
  return results;
}

}  // namespace dtdctcp::runner
