// Open-loop Poisson flow arrivals with configurable size distribution —
// the classic datacenter FCT benchmark (the DCTCP evaluation style this
// paper's §VI builds on). Flows arrive as a Poisson process, pick a
// random (source, sink) host pair, and transfer a sampled number of
// segments; completed flows are reported to a tcp::FlowMetricsCollector.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "queue/multi_queue.h"
#include "sim/network.h"
#include "tcp/connection.h"
#include "tcp/flow_metrics.h"
#include "util/rng.h"

namespace dtdctcp::workload {

/// Discrete flow-size distribution in segments.
class FlowSizeDist {
 public:
  struct Atom {
    std::int64_t segments;
    double weight;
  };

  static FlowSizeDist fixed(std::int64_t segments) {
    return FlowSizeDist({{segments, 1.0}});
  }

  /// A web-search-like synthetic mix: mostly short queries, a heavy
  /// tail of background transfers (shape inspired by the DCTCP paper's
  /// production traces; the exact trace is proprietary, so this is a
  /// documented substitution preserving the short/long dichotomy).
  static FlowSizeDist websearch() {
    return FlowSizeDist({{1, 0.15},
                         {2, 0.15},
                         {5, 0.20},
                         {20, 0.15},
                         {50, 0.12},
                         {200, 0.13},
                         {700, 0.07},
                         {2000, 0.03}});
  }

  explicit FlowSizeDist(std::vector<Atom> atoms) : atoms_(std::move(atoms)) {
    assert(!atoms_.empty());
    double total = 0.0;
    for (const auto& a : atoms_) {
      assert(a.segments > 0 && a.weight >= 0.0);
      total += a.weight;
    }
    assert(total > 0.0);
    for (auto& a : atoms_) a.weight /= total;
  }

  std::int64_t sample(Rng& rng) const {
    double u = rng.uniform(0.0, 1.0);
    for (const auto& a : atoms_) {
      if (u < a.weight) return a.segments;
      u -= a.weight;
    }
    return atoms_.back().segments;
  }

  double mean_segments() const {
    double m = 0.0;
    for (const auto& a : atoms_) {
      m += static_cast<double>(a.segments) * a.weight;
    }
    return m;
  }

  const std::vector<Atom>& atoms() const { return atoms_; }

 private:
  std::vector<Atom> atoms_;
};

struct PoissonConfig {
  double arrivals_per_sec = 1000.0;
  FlowSizeDist sizes = FlowSizeDist::websearch();
  SimTime duration = 1.0;       ///< arrival window; flows may finish later
  std::uint64_t seed = 5;
  /// Size classes for the FlowMetricsCollector a caller attaches (and
  /// for `priority_bounds`); the generator itself does not read them.
  std::int64_t small_cutoff_segments = 70;    ///< ~100 KB
  std::int64_t large_cutoff_segments = 670;   ///< ~1 MB

  /// When > 0, every flow gets an absolute completion deadline of
  /// arrival + `flow_deadline` (D2TCP-style; pair with CcMode::kD2tcp
  /// so the sender acts on it — the met/missed accounting works for any
  /// mode, which is how the deadline-blind baseline is measured).
  SimTime flow_deadline = 0.0;

  /// When non-empty, each flow's TcpConfig::priority is stamped from
  /// its sampled size via queue::classify_flow_size(segments, bounds) —
  /// the PBS-style tagging where small flows land in the higher class.
  /// Only multi-queue ports act on the tag, so this is inert on
  /// single-queue topologies.
  std::vector<std::int64_t> priority_bounds;
};

/// Arrival rate that offers `load` (0..1) of `capacity_bps` given the
/// size distribution (mean flow size * mss bytes on the wire).
inline double arrival_rate_for_load(double load, double capacity_bps,
                                    const FlowSizeDist& sizes,
                                    std::uint32_t mss_bytes) {
  const double mean_bits = sizes.mean_segments() *
                           static_cast<double>(mss_bytes) * 8.0;
  return load * capacity_bps / mean_bits;
}

class PoissonFlowGenerator {
 public:
  /// Flows go from a random source to a random sink (distinct hosts).
  PoissonFlowGenerator(sim::Network& net, std::vector<sim::Host*> sources,
                       std::vector<sim::Host*> sinks,
                       tcp::TcpConfig tcp_cfg, PoissonConfig cfg)
      : net_(net), sources_(std::move(sources)), sinks_(std::move(sinks)),
        tcp_cfg_(tcp_cfg), cfg_(cfg), rng_(cfg.seed) {
    assert(!sources_.empty() && !sinks_.empty());
  }

  void start(SimTime t0) { schedule_next(t0); }

  /// Per-flow lifecycle sink: every completed flow's FlowRecord is
  /// pushed into `c` (must outlive the simulation run). It is where a
  /// run's FCTs and timeouts are read.
  void set_collector(tcp::FlowMetricsCollector* c) { collector_ = c; }

  std::size_t flows_started() const { return started_; }
  std::size_t flows_completed() const { return completed_; }

 private:
  void schedule_next(SimTime now) {
    const double gap = rng_.exponential(1.0 / cfg_.arrivals_per_sec);
    const SimTime t = now + gap;
    if (t > end_time()) return;  // arrival window closed
    net_.sim().at(t, [this, t] {
      launch_flow(t);
      schedule_next(t);
    });
  }

  SimTime end_time() const { return cfg_.duration; }

  void launch_flow(SimTime now) {
    sim::Host* src = sources_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(sources_.size()) - 1))];
    sim::Host* dst = src;
    for (int tries = 0; dst == src && tries < 64; ++tries) {
      dst = sinks_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(sinks_.size()) - 1))];
    }
    if (dst == src) return;  // degenerate host set
    const std::int64_t segs = cfg_.sizes.sample(rng_);
    tcp::TcpConfig flow_cfg = tcp_cfg_;
    if (cfg_.flow_deadline > 0.0) {
      flow_cfg.deadline = now + cfg_.flow_deadline;
    }
    if (!cfg_.priority_bounds.empty()) {
      flow_cfg.priority = queue::classify_flow_size(segs, cfg_.priority_bounds);
    }
    auto conn =
        std::make_unique<tcp::Connection>(net_, *src, *dst, flow_cfg, segs);
    tcp::Connection* raw = conn.get();
    conn->set_on_complete([this, raw](SimTime) {
      ++completed_;
      if (collector_ != nullptr) collector_->record(raw->flow_record());
      reap(raw);
    });
    conn->start_at(now);
    live_.push_back(std::move(conn));
    ++started_;
  }

  /// Deferred destruction: the completing connection is still on the
  /// call stack, so free it from a fresh event.
  void reap(tcp::Connection* conn) {
    net_.sim().after(0.0, [this, conn] {
      for (auto it = live_.begin(); it != live_.end(); ++it) {
        if (it->get() == conn) {
          live_.erase(it);
          return;
        }
      }
    });
  }

  sim::Network& net_;
  std::vector<sim::Host*> sources_;
  std::vector<sim::Host*> sinks_;
  tcp::TcpConfig tcp_cfg_;
  PoissonConfig cfg_;
  Rng rng_;

  tcp::FlowMetricsCollector* collector_ = nullptr;
  std::vector<std::unique_ptr<tcp::Connection>> live_;
  std::size_t started_ = 0;
  std::size_t completed_ = 0;
};

}  // namespace dtdctcp::workload
