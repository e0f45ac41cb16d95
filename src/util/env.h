// Environment-variable knobs for the benchmark harnesses.
//
// Figure-reproduction benches can take minutes at full fidelity; these
// helpers let CI or an impatient user scale the simulated durations and
// repetition counts down without editing code:
//
//   DTDCTCP_BENCH_SCALE=0.25 ./build/bench/fig10_avg_queue
#pragma once

#include <cstdint>
#include <string>

namespace dtdctcp {

/// Reads a double from the environment; returns `fallback` when the
/// variable is unset or unparsable. Values are clamped to [lo, hi].
double env_double(const char* name, double fallback, double lo, double hi);

/// Reads a non-negative integer, clamped to [lo, hi].
std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi);

/// Global duration/repetition multiplier for benches (DTDCTCP_BENCH_SCALE,
/// default 1.0, clamped to [0.01, 100]).
double bench_scale();

/// The one export directory: "<DTDCTCP_CSV_DIR>/<file>", or "" when the
/// variable is unset or empty (callers then skip the export). Plot
/// CSVs, metrics dumps and bench JSON reports all land there.
std::string export_path(const std::string& file);

}  // namespace dtdctcp
