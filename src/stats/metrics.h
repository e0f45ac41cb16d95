// Metrics registry: named counters, gauges, and log-linear histograms.
//
// The flow-level observability layer. Components (ports, senders,
// workloads, queue monitors) register metrics by name into a
// MetricsRegistry owned by the harness; the registry serializes to JSON
// or CSV, wired into the same DTDCTCP_CSV_DIR convention the benches
// use for plot-ready traces. All types are plain value types (a result
// struct can carry a whole registry across the parallel runner), and
// iteration order is the lexicographic name order, so exports are
// deterministic and byte-identical between serial and parallel runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/env.h"

namespace dtdctcp::stats {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-linear histogram: bucket boundaries grow by powers of two from
/// `min_value`, with `sub_buckets` linear sub-divisions per octave —
/// constant relative resolution (~1/sub_buckets) across many decades,
/// which is what flow completion times spanning microseconds to seconds
/// need. Values <= min_value land in one underflow bucket [0, min_value].
class LogLinearHistogram {
 public:
  explicit LogLinearHistogram(double min_value = 1e-6,
                              std::size_t sub_buckets = 8)
      : min_value_(min_value > 0.0 ? min_value : 1e-6),
        sub_(sub_buckets > 0 ? sub_buckets : 1) {}

  void add(double x) {
    const std::size_t idx = index_of(x);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++count_;
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double min_value() const { return min_value_; }
  std::size_t sub_buckets() const { return sub_; }

  /// Approximate percentile (p in [0, 100]): linear interpolation inside
  /// the bucket holding the target rank, clamped to the exact observed
  /// [min, max]. Relative error is bounded by the bucket width.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank = clamped / 100.0 * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double prev = static_cast<double>(cum);
      cum += counts_[i];
      if (static_cast<double>(cum) >= rank) {
        const double frac =
            (rank - prev) / static_cast<double>(counts_[i]);
        const double v =
            bucket_lower(i) + frac * (bucket_upper(i) - bucket_lower(i));
        return std::clamp(v, min_, max_);
      }
    }
    return max_;
  }

  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
  };

  /// Occupied buckets in ascending value order (for export).
  std::vector<Bucket> nonzero_buckets() const {
    std::vector<Bucket> out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) {
        out.push_back({bucket_lower(i), bucket_upper(i), counts_[i]});
      }
    }
    return out;
  }

 private:
  std::size_t index_of(double x) const {
    if (!(x > min_value_)) return 0;  // underflow (also NaN-safe)
    int exp = 0;
    const double frac = std::frexp(x / min_value_, &exp);  // frac in [0.5, 1)
    const std::size_t major = static_cast<std::size_t>(exp - 1);
    auto minor = static_cast<std::size_t>((frac * 2.0 - 1.0) *
                                          static_cast<double>(sub_));
    if (minor >= sub_) minor = sub_ - 1;
    return 1 + major * sub_ + minor;
  }

  double bucket_lower(std::size_t idx) const {
    if (idx == 0) return 0.0;
    const std::size_t major = (idx - 1) / sub_;
    const std::size_t minor = (idx - 1) % sub_;
    return min_value_ * std::ldexp(1.0 + static_cast<double>(minor) /
                                            static_cast<double>(sub_),
                                   static_cast<int>(major));
  }

  double bucket_upper(std::size_t idx) const {
    if (idx == 0) return min_value_;
    const std::size_t major = (idx - 1) / sub_;
    const std::size_t minor = (idx - 1) % sub_;
    return min_value_ * std::ldexp(1.0 + static_cast<double>(minor + 1) /
                                            static_cast<double>(sub_),
                                   static_cast<int>(major));
  }

  double min_value_;
  std::size_t sub_;
  std::vector<std::uint64_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Name -> metric map with deterministic (sorted) iteration. Returned
/// references stay valid for the registry's lifetime (std::map nodes
/// are stable); the registry itself is copyable, so sweep results can
/// carry one per job through the parallel runner.
class MetricsRegistry {
 public:
  /// Finds or creates the counter `name`.
  Counter& counter(const std::string& name) { return counters_[name]; }

  /// Finds or creates the gauge `name`.
  Gauge& gauge(const std::string& name) { return gauges_[name]; }

  /// Finds or creates the histogram `name`; the layout parameters apply
  /// only on first creation.
  LogLinearHistogram& histogram(const std::string& name,
                                double min_value = 1e-6,
                                std::size_t sub_buckets = 8) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_
               .emplace(name, LogLinearHistogram(min_value, sub_buckets))
               .first;
    }
    return it->second;
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// JSON document: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p99,
  /// buckets: [[lo, hi, n], ...]}}}. Doubles use shortest round-trip
  /// formatting, so the export is lossless and deterministic.
  void write_json(std::ostream& out) const {
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": " << c.value();
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": " << num(g.value());
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": {\"count\": " << h.count() << ", \"sum\": " << num(h.sum())
          << ", \"min\": " << num(h.min()) << ", \"max\": " << num(h.max())
          << ", \"mean\": " << num(h.mean())
          << ", \"p50\": " << num(h.percentile(50.0))
          << ", \"p99\": " << num(h.percentile(99.0)) << ", \"buckets\": [";
      bool bfirst = true;
      for (const auto& b : h.nonzero_buckets()) {
        out << (bfirst ? "" : ", ") << "[" << num(b.lower) << ", "
            << num(b.upper) << ", " << b.count << "]";
        bfirst = false;
      }
      out << "]}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "}\n}\n";
  }

  /// Flat CSV: kind,name,field,value — one row per scalar, histograms
  /// expanded into their summary fields.
  void write_csv(std::ostream& out) const {
    CsvWriter w(out);
    w.row({"kind", "name", "field", "value"});
    for (const auto& [name, c] : counters_) {
      w.row({"counter", name, "value", std::to_string(c.value())});
    }
    for (const auto& [name, g] : gauges_) {
      w.row({"gauge", name, "value", CsvWriter::format_double(g.value())});
    }
    for (const auto& [name, h] : histograms_) {
      w.row({"histogram", name, "count", std::to_string(h.count())});
      w.row({"histogram", name, "mean", CsvWriter::format_double(h.mean())});
      w.row({"histogram", name, "min", CsvWriter::format_double(h.min())});
      w.row({"histogram", name, "max", CsvWriter::format_double(h.max())});
      w.row({"histogram", name, "p50",
             CsvWriter::format_double(h.percentile(50.0))});
      w.row({"histogram", name, "p99",
             CsvWriter::format_double(h.percentile(99.0))});
    }
  }

  /// Writes <dir>/<name>.metrics.json and <dir>/<name>.metrics.csv into
  /// the export directory (dtdctcp::export_path, DTDCTCP_CSV_DIR) when
  /// it is set; silently does nothing otherwise. Returns true when both
  /// files were written.
  bool maybe_export(const std::string& name) const {
    const std::string base = export_path(name + ".metrics");
    if (base.empty()) return false;
    std::ofstream json(base + ".json", std::ios::trunc);
    if (!json.is_open()) return false;
    write_json(json);
    std::ofstream csv(base + ".csv", std::ios::trunc);
    if (!csv.is_open()) return false;
    write_csv(csv);
    return true;
  }

 private:
  static std::string num(double v) { return CsvWriter::format_double(v); }

  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogLinearHistogram> histograms_;
};

}  // namespace dtdctcp::stats
