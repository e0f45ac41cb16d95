#include "runner/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "util/env.h"

namespace dtdctcp::runner {

namespace {

std::atomic<std::size_t> g_jobs_override{0};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Shared state for one run: the job cursor plus everything the
/// completion bookkeeping touches under the lock.
struct RunState {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::size_t completed = 0;
  double job_seconds_total = 0.0;
  double job_seconds_max = 0.0;
  std::exception_ptr first_error;
};

/// Worker loop: claim indices until the cursor runs out or a sibling
/// records an error. Runs on the calling thread too (serial path).
void work(RunState& st, std::size_t count,
          const std::function<void(std::size_t)>& body,
          const RunnerOptions& opts) {
  for (;;) {
    const std::size_t i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    const auto start = std::chrono::steady_clock::now();
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(st.mu);
      if (!st.first_error) st.first_error = std::current_exception();
      // Park the cursor past the end so siblings drain quickly.
      st.next.store(count, std::memory_order_relaxed);
      return;
    }
    const double secs = seconds_since(start);
    std::lock_guard<std::mutex> lock(st.mu);
    ++st.completed;
    st.job_seconds_total += secs;
    if (secs > st.job_seconds_max) st.job_seconds_max = secs;
    if (opts.progress) {
      Progress p;
      p.completed = st.completed;
      p.total = count;
      p.index = i;
      p.job_seconds = secs;
      opts.progress(p);
    }
  }
}

}  // namespace

void set_jobs_override(std::size_t jobs) {
  g_jobs_override.store(jobs, std::memory_order_relaxed);
}

std::size_t default_jobs() {
  const std::size_t override = g_jobs_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const std::int64_t env = env_int("DTDCTCP_JOBS", 0, 0, 1024);
  if (env > 0) return static_cast<std::size_t>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void run_indexed(std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 const RunnerOptions& opts, RunnerTelemetry* telemetry) {
  const std::size_t resolved = opts.jobs > 0 ? opts.jobs : default_jobs();
  const std::size_t workers = count < resolved ? (count > 0 ? count : 1)
                                               : resolved;
  const auto start = std::chrono::steady_clock::now();

  RunState st;
  if (workers <= 1) {
    // Legacy serial path: no threads, jobs run inline in index order.
    work(st, count, body, opts);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back([&] { work(st, count, body, opts); });
    }
    work(st, count, body, opts);  // the calling thread pulls its weight
    for (auto& t : pool) t.join();
  }

  if (telemetry != nullptr) {
    telemetry->jobs = st.completed;
    telemetry->workers = workers;
    telemetry->wall_seconds = seconds_since(start);
    telemetry->job_seconds_total = st.job_seconds_total;
    telemetry->job_seconds_max = st.job_seconds_max;
  }
  if (st.first_error) std::rethrow_exception(st.first_error);
}

RunnerOptions stderr_progress(const char* tag) {
  RunnerOptions opts;
  opts.progress = [tag](const Progress& p) {
    std::fprintf(stderr, "  [%s] %zu/%zu jobs done (last %.2fs)\n", tag,
                 p.completed, p.total, p.job_seconds);
  };
  return opts;
}

void print_telemetry(const char* tag, const RunnerTelemetry& tm) {
  std::fprintf(stderr,
               "  [%s] %zu jobs on %zu workers: %.2fs wall, %.2fs of "
               "simulation (%.2fx speedup, slowest job %.2fs)\n",
               tag, tm.jobs, tm.workers, tm.wall_seconds,
               tm.job_seconds_total, tm.speedup(), tm.job_seconds_max);
}

}  // namespace dtdctcp::runner
