// Outside-in span tracing for the traced benchmark run.
//
// Spans are opened only by the decorators below, which the benchmark
// installs at the library's public seams: a QueueFactory wrapper around
// every QueueDisc call, a QueueObserver relay in front of a queue
// monitor, and PacketSink wrappers re-bound through Host::bind_flow
// around TCP endpoints. Nothing inside the library is instrumented.
//
// Spans nest (a TCP delivery sends through the NIC queue, a queue call
// notifies the monitor), so each span's self time is its duration minus
// the durations of the spans opened inside it. Accumulators are per
// thread (shard workers trace concurrently, never sharing a slot) and
// are summed once the run has ended and its threads have joined.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/host.h"
#include "sim/network.h"
#include "sim/queue_disc.h"

namespace perfbench {

enum class Layer : std::uint8_t { kQueue, kStats, kTcp, kRoute, kCount };
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::array<std::int64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> calls{};

  std::int64_t ns(Layer l) const { return self_ns[static_cast<int>(l)]; }
  std::uint64_t n(Layer l) const { return calls[static_cast<int>(l)]; }
};

/// One traced run's span accounting. Every thread that opens a span gets
/// its own slot on first use; totals() may only be called once those
/// threads have stopped tracing.
class Tracer {
 public:
  Tracer() : id_(next_id()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct ThreadSlot {
    static constexpr int kMaxDepth = 64;
    LayerTotals totals;
    int depth = 0;
    std::array<std::int64_t, kMaxDepth> child_ns{};
  };

  ThreadSlot& local() {
    // Keyed by tracer id, not address: a later tracer may reuse the
    // storage of an earlier one while this thread still caches a slot.
    thread_local std::uint64_t cached_id = 0;
    thread_local ThreadSlot* cached = nullptr;
    if (cached_id != id_) {
      std::lock_guard<std::mutex> lk(mu_);
      slots_.push_back(std::make_unique<ThreadSlot>());
      cached = slots_.back().get();
      cached_id = id_;
    }
    return *cached;
  }

  LayerTotals totals() const {
    std::lock_guard<std::mutex> lk(mu_);
    LayerTotals t;
    for (const auto& s : slots_) {
      for (std::size_t l = 0; l < kLayers; ++l) {
        t.self_ns[l] += s->totals.self_ns[l];
        t.calls[l] += s->totals.calls[l];
      }
    }
    return t;
  }

 private:
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Scoped span: charges its self time (duration minus nested spans) to
/// `layer` and its full duration to the enclosing span's children.
class Span {
 public:
  Span(Tracer& tracer, Layer layer)
      : slot_(tracer.local()), layer_(layer), start_(now_ns()) {
    ++slot_.depth;
    slot_.child_ns[slot_.depth] = 0;
  }
  ~Span() {
    const std::int64_t dur = now_ns() - start_;
    const auto l = static_cast<std::size_t>(layer_);
    slot_.totals.self_ns[l] += dur - slot_.child_ns[slot_.depth];
    ++slot_.totals.calls[l];
    --slot_.depth;
    slot_.child_ns[slot_.depth] += dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadSlot& slot_;
  Layer layer_;
  std::int64_t start_;
};

/// Queue discipline decorator: times every enqueue/dequeue/bypass call
/// and forwards the wrapped discipline's occupancy and exact counters,
/// so ports, switches and digests see the same values as unwrapped.
class TracedDisc final : public dtdctcp::sim::QueueDisc {
 public:
  TracedDisc(std::unique_ptr<dtdctcp::sim::QueueDisc> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  dtdctcp::sim::QueueDisc& inner() { return *inner_; }

  std::size_t packets() const override { return inner_->packets(); }
  std::size_t bytes() const override { return inner_->bytes(); }
  dtdctcp::sim::Counters counters() const override {
    return inner_->counters();
  }

 protected:
  dtdctcp::sim::EnqueueResult do_enqueue(dtdctcp::sim::Packet& pkt,
                                         dtdctcp::SimTime now) override {
    Span s(tracer_, Layer::kQueue);
    return inner_->enqueue(pkt, now);
  }
  bool do_dequeue(dtdctcp::sim::Packet& out, dtdctcp::SimTime now) override {
    Span s(tracer_, Layer::kQueue);
    return inner_->dequeue(out, now);
  }
  void do_bypass(dtdctcp::sim::Packet& pkt, dtdctcp::SimTime now) override {
    Span s(tracer_, Layer::kQueue);
    inner_->on_bypass(pkt, now);
  }

 private:
  std::unique_ptr<dtdctcp::sim::QueueDisc> inner_;
  Tracer& tracer_;
};

inline dtdctcp::sim::QueueFactory traced(dtdctcp::sim::QueueFactory base,
                                         Tracer& tracer) {
  return [base = std::move(base), &tracer] {
    return std::make_unique<TracedDisc>(base(), tracer);
  };
}

/// The discipline a port really runs (unwraps a TracedDisc).
inline dtdctcp::sim::QueueDisc& real_disc(dtdctcp::sim::QueueDisc& disc) {
  auto* t = dynamic_cast<TracedDisc*>(&disc);
  return t != nullptr ? t->inner() : disc;
}

/// Sums the exact counters of every traced discipline in the network.
inline dtdctcp::sim::Counters traced_counters(
    const dtdctcp::sim::Network& net) {
  dtdctcp::sim::Counters c;
  for (const auto& node : net.nodes()) {
    if (auto* h = dynamic_cast<dtdctcp::sim::Host*>(node.get())) {
      if (h->has_uplink() &&
          dynamic_cast<const TracedDisc*>(&h->uplink().disc()) != nullptr) {
        c += h->uplink().disc().counters();
      }
    } else if (auto* sw = dynamic_cast<dtdctcp::sim::Switch*>(node.get())) {
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        const auto& disc = sw->port(p).disc();
        if (dynamic_cast<const TracedDisc*>(&disc) != nullptr) {
          c += disc.counters();
        }
      }
    }
  }
  return c;
}

/// Queue-observer relay: times the monitor's per-change bookkeeping.
class ObserverRelay final : public dtdctcp::sim::QueueObserver {
 public:
  ObserverRelay(dtdctcp::sim::QueueObserver& target, Tracer& tracer)
      : target_(target), tracer_(tracer) {}
  void on_queue_change(dtdctcp::SimTime now, std::size_t pkts,
                       std::size_t bytes) override {
    Span s(tracer_, Layer::kStats);
    target_.on_queue_change(now, pkts, bytes);
  }

 private:
  dtdctcp::sim::QueueObserver& target_;
  Tracer& tracer_;
};

/// Packet-sink relay bound in place of a TCP endpoint.
class SinkRelay final : public dtdctcp::sim::PacketSink {
 public:
  SinkRelay(dtdctcp::sim::PacketSink& target, Tracer& tracer)
      : target_(target), tracer_(tracer) {}
  void deliver(dtdctcp::sim::Packet pkt) override {
    Span s(tracer_, Layer::kTcp);
    target_.deliver(std::move(pkt));
  }

 private:
  dtdctcp::sim::PacketSink& target_;
  Tracer& tracer_;
};

}  // namespace perfbench
