// Multi-queue port discipline: N per-class child disciplines behind one
// scheduler (strict priority or weighted round-robin).
//
// Each priority class is a full QueueDisc of its own — any AQM in
// queue/ works, including pool-charging variants from queue::pooled(),
// so every class can run its own marking rule and charge the shared
// SharedBufferPool under its own DT share. The parent routes a packet
// to the class named by Packet::prio (clamped to the class count) and
// dequeues per the scheduling policy:
//
//   * kStrictPriority — never serve class c while any class < c is
//     non-empty (class 0 is the highest). The invariant checker verifies
//     exactly this ("scheduler legality") on every parent dequeue.
//   * kWrr — deficit-free weighted round-robin in packets: a backlogged
//     rotation serves exactly weights[i] packets from class i before
//     moving on; empty classes are skipped (work-conserving).
//
// Checker contract: the parent forwards through the children's PUBLIC
// enqueue/dequeue/on_bypass entry points, so the per-class wrappers
// maintain their own counters and fire their own hooks. The checker
// recognizes the parent as an aggregate (see Checker::classify) and
// keeps its ledger at the child level; the parent's own hooks only
// carry the scheduler-legality check. counters() is overridden to sum
// the children, so Port/Switch totals stay exact.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/queue_disc.h"

namespace dtdctcp::queue {

enum class SchedPolicy : std::uint8_t { kStrictPriority, kWrr };

inline const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kStrictPriority: return "strict";
    case SchedPolicy::kWrr: return "wrr";
  }
  return "?";
}

/// PBS-style flow-size classifier: returns the priority class for a
/// flow of `size_segments`, given ascending class upper bounds
/// (exclusive). sizes < bounds[0] map to class 0 (highest), sizes in
/// [bounds[i-1], bounds[i]) to class i, and everything >= bounds.back()
/// to class bounds.size() — small flows preempt large ones, the
/// SRPT-approximating tagging of PBS/pFabric.
inline std::uint8_t classify_flow_size(std::int64_t size_segments,
                                       const std::vector<std::int64_t>& bounds) {
  std::uint8_t cls = 0;
  for (const std::int64_t b : bounds) {
    if (size_segments < b) break;
    ++cls;
  }
  return cls <= 3 ? cls : 3;  // Packet::prio carries 2 bits
}

class MultiQueueDisc final : public sim::QueueDisc {
 public:
  /// `classes` must be non-empty; for kWrr, `weights` must be empty
  /// (all 1) or one positive weight per class. More than 4 classes is
  /// legal but unreachable through Packet::prio (2 bits).
  MultiQueueDisc(std::vector<std::unique_ptr<sim::QueueDisc>> classes,
                 SchedPolicy policy,
                 std::vector<std::uint32_t> weights = {})
      : classes_(std::move(classes)), policy_(policy),
        weights_(std::move(weights)) {
    assert(!classes_.empty());
    if (weights_.empty()) weights_.assign(classes_.size(), 1);
    assert(weights_.size() == classes_.size());
    for (std::uint32_t& w : weights_) {
      if (w == 0) w = 1;
    }
    wrr_credit_ = weights_[0];
  }

  /// The class serving `pkt`: its priority tag, clamped so tags beyond
  /// the configured class count land in the lowest class.
  std::size_t class_of(const sim::Packet& pkt) const {
    const std::size_t c = pkt.prio;
    return c < classes_.size() ? c : classes_.size() - 1;
  }

  std::size_t classes() const { return classes_.size(); }
  sim::QueueDisc& child(std::size_t i) { return *classes_[i]; }
  const sim::QueueDisc& child(std::size_t i) const { return *classes_[i]; }
  SchedPolicy policy() const { return policy_; }
  const std::vector<std::uint32_t>& weights() const { return weights_; }

  std::size_t packets() const override {
    std::size_t n = 0;
    for (const auto& c : classes_) n += c->packets();
    return n;
  }

  std::size_t bytes() const override {
    std::size_t n = 0;
    for (const auto& c : classes_) n += c->bytes();
    return n;
  }

  /// The classes' packets live in the store the port binds.
  void bind_store(sim::PacketStore& store) override {
    for (const auto& c : classes_) c->bind_store(store);
  }

  /// Port/Switch totals come from the children (the wrapper counts of
  /// this parent double-book every event the children already counted).
  sim::Counters counters() const override {
    sim::Counters c;
    for (const auto& ch : classes_) c += ch->counters();
    return c;
  }

 protected:
  sim::EnqueueResult do_enqueue(sim::Packet& pkt, SimTime now) override {
    // Public child entry point: the per-class counters and check hooks
    // run there. A child rejection is NOT re-counted here — the drop
    // belongs to the class queue, and counters() sums the children.
    const sim::EnqueueResult r = classes_[class_of(pkt)]->enqueue(pkt, now);
    if (r == sim::EnqueueResult::kEnqueued) notify(now, packets(), bytes());
    return r;
  }

  bool do_dequeue(sim::Packet& out, SimTime now) override {
    const bool got = policy_ == SchedPolicy::kStrictPriority
                         ? dequeue_strict(out, now)
                         : dequeue_wrr(out, now);
    if (got) notify(now, packets(), bytes());
    return got;
  }

  void do_bypass(sim::Packet& pkt, SimTime now) override {
    classes_[class_of(pkt)]->on_bypass(pkt, now);
  }

 private:
  bool dequeue_strict(sim::Packet& out, SimTime now) {
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c]->packets() == 0) continue;
      std::size_t serve = c;
      if (DTDCTCP_CHECK_INJECT(kSchedSkip)) {
        // Deliberate legality breakage: serve the LOWEST-priority
        // backlogged class instead, proving the checker fires.
        for (std::size_t low = classes_.size(); low-- > c;) {
          if (classes_[low]->packets() != 0) {
            serve = low;
            break;
          }
        }
      }
      // A non-empty child can still come up empty-handed (CoDel may
      // discard its whole backlog at dequeue time); fall through to the
      // next class rather than stalling the port.
      if (classes_[serve]->dequeue(out, now)) return true;
    }
    return false;
  }

  bool dequeue_wrr(sim::Packet& out, SimTime now) {
    const std::size_t n = classes_.size();
    // Two sweeps bound the scan: one to burn empty classes/exhausted
    // credit, one to serve. All-empty falls out with false.
    for (std::size_t attempts = 0; attempts < 2 * n; ++attempts) {
      if (wrr_credit_ == 0 || classes_[wrr_class_]->packets() == 0) {
        wrr_class_ = (wrr_class_ + 1) % n;
        wrr_credit_ = weights_[wrr_class_];
        continue;
      }
      if (classes_[wrr_class_]->dequeue(out, now)) {
        --wrr_credit_;
        return true;
      }
      // Non-empty child yielded nothing (internal discard): move on.
      wrr_class_ = (wrr_class_ + 1) % n;
      wrr_credit_ = weights_[wrr_class_];
    }
    return false;
  }

  std::vector<std::unique_ptr<sim::QueueDisc>> classes_;
  SchedPolicy policy_;
  std::vector<std::uint32_t> weights_;
  std::size_t wrr_class_ = 0;
  std::uint32_t wrr_credit_ = 0;
};

/// Factory: a multi-queue port of `classes` copies of `per_class`, one
/// per priority level, under the given scheduler.
inline sim::QueueFactory multi_queue(std::size_t classes,
                                     sim::QueueFactory per_class,
                                     SchedPolicy policy,
                                     std::vector<std::uint32_t> weights = {}) {
  return [classes, per_class = std::move(per_class), policy,
          weights = std::move(weights)] {
    std::vector<std::unique_ptr<sim::QueueDisc>> kids;
    kids.reserve(classes);
    for (std::size_t i = 0; i < classes; ++i) kids.push_back(per_class());
    return std::make_unique<MultiQueueDisc>(std::move(kids), policy, weights);
  };
}

}  // namespace dtdctcp::queue
