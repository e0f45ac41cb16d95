// Shared helpers for the figure-reproduction harnesses.
//
// Every bench prints:
//   * a header identifying the paper figure/table it regenerates,
//   * the configuration actually used (including any documented
//     deviation from the paper),
//   * machine-readable rows (aligned columns) for the series, and
//   * a PAPER-EXPECTATION block naming the qualitative shape to check.
//
// DTDCTCP_BENCH_SCALE scales simulated durations / repetition counts
// (default 1.0; e.g. 0.2 for a quick smoke run). DTDCTCP_CSV_DIR names
// the one export directory (dtdctcp::export_path): plot CSVs, metrics
// dumps and each bench's JSON report land there.
#pragma once

#include <concepts>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/env.h"

namespace dtdctcp::bench {

inline void header(const char* figure, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("bench scale: %.2f (set DTDCTCP_BENCH_SCALE to adjust)\n",
              dtdctcp::bench_scale());
  std::printf("==============================================================\n");
}

inline void section(const char* name) {
  std::printf("\n--- %s ---\n", name);
}

inline void expectation(const char* text) {
  std::printf("\nPAPER-EXPECTATION: %s\n", text);
}

/// Scales a duration/count by DTDCTCP_BENCH_SCALE with a floor.
inline double scaled(double value, double min_value) {
  const double v = value * dtdctcp::bench_scale();
  return v < min_value ? min_value : v;
}

inline std::size_t scaled_count(std::size_t value, std::size_t min_value) {
  const double v = static_cast<double>(value) * dtdctcp::bench_scale();
  const auto n = static_cast<std::size_t>(v + 0.5);
  return n < min_value ? min_value : n;
}

/// Writes plot-ready CSV next to the printed table into the export
/// directory (e.g. DTDCTCP_CSV_DIR=/tmp/plots ./build/bench/fig10_avg_queue).
/// Silently does nothing when it is unset; failures to open the file
/// are reported on stderr but never fail the bench.
inline void maybe_write_csv(const std::string& name,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<double>>& rows) {
  const std::string path = dtdctcp::export_path(name + ".csv");
  if (path.empty()) return;
  auto out = dtdctcp::open_csv(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "could not open %s for CSV export\n", path.c_str());
    return;
  }
  dtdctcp::CsvWriter w(out);
  w.row(header);
  for (const auto& r : rows) w.numeric_row(r);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// The google-benchmark-shaped JSON rows that tools/bench_merge.py
/// merges into BENCH_simcore and gates. Rows and their fields keep
/// insertion order; `write()` puts them in <bench>.json in the export
/// directory and does nothing when it is unset:
///
///   bench::Report report("ext_fct_workloads");
///   report.row("fct/dumbbell/websearch/dctcp")
///       .add("p99_fct_s", r.fct_p99)
///       .add("flows", r.flows_completed);
///   report.write();
class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  /// Starts a row; `add` appends fields to the latest one.
  Report& row(const std::string& name) {
    rows_.push_back("{\"name\": \"" + name + "\", \"run_name\": \"" + name +
                    "\", \"run_type\": \"iteration\", \"iterations\": 1");
    return *this;
  }

  /// Doubles print in shortest round-trip form, integers as integers
  /// (100000, never 1e+05).
  Report& add(const char* key, double value) {
    return append(key, dtdctcp::CsvWriter::format_double(value));
  }
  template <std::integral T>
  Report& add(const char* key, T value) {
    return append(key, std::to_string(value));
  }

  void write() const {
    const std::string path = dtdctcp::export_path(bench_ + ".json");
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "could not open %s for JSON export\n",
                   path.c_str());
      return;
    }
    out << "{\n  \"context\": {\"executable\": \"" << bench_ << "\"},\n"
        << "  \"benchmarks\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    " << rows_[i] << "}";
    }
    out << "\n  ]\n}\n";
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

 private:
  Report& append(const char* key, const std::string& value) {
    rows_.back() += std::string(", \"") + key + "\": " + value;
    return *this;
  }

  std::string bench_;
  std::vector<std::string> rows_;  ///< one per row, without its closing brace
};

}  // namespace dtdctcp::bench
