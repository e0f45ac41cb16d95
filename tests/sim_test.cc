// Unit tests for the discrete-event kernel, ports/links, switching and
// routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "parsim/mailbox.h"
#include "queue/codel.h"
#include "queue/drop_tail.h"
#include "queue/factory.h"
#include "queue/multi_queue.h"
#include "sim/network.h"
#include "sim/port.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace dtdctcp {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  sim::Simulator s;
  std::vector<int> order;
  s.at(2.0, [&] { order.push_back(2); });
  s.at(1.0, [&] { order.push_back(1); });
  s.at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_processed(), 3u);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  sim::Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  sim::Simulator s;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) s.after(1.0, chain);
  };
  s.after(1.0, chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  sim::Simulator s;
  int fired = 0;
  s.at(1.0, [&] { ++fired; });
  s.at(2.0, [&] { ++fired; });
  s.at(3.0, [&] { ++fired; });
  s.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StopHaltsTheLoop) {
  sim::Simulator s;
  int fired = 0;
  s.at(1.0, [&] {
    ++fired;
    s.stop();
  });
  s.at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes with the remaining event
  EXPECT_EQ(fired, 2);
}

// --- cancellable timers ----------------------------------------------

TEST(Simulator, CancelPreventsTimerFromFiring) {
  sim::Simulator s;
  int fired = 0;
  auto h = s.timer_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.timers_cancelled(), 1u);
}

TEST(Simulator, CancelledTimerLeavesQueueImmediately) {
  sim::Simulator s;
  auto h = s.timer_at(1.0, [] {});
  EXPECT_EQ(s.queue_size(), 1u);
  s.cancel(h);
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, FiredTimerHandleGoesStale) {
  sim::Simulator s;
  int fired = 0;
  auto h = s.timer_at(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(h));  // already fired: harmless no-op
  EXPECT_EQ(s.timers_cancelled(), 0u);
}

TEST(Simulator, DoubleCancelIsHarmless) {
  sim::Simulator s;
  auto h = s.timer_at(1.0, [] {});
  auto dup = h;  // a second copy of the same claim ticket
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(dup));
  EXPECT_FALSE(s.cancel(h));  // the first cancel reset the handle
  EXPECT_EQ(s.timers_cancelled(), 1u);
}

TEST(Simulator, DefaultHandleCancelIsNoop) {
  sim::Simulator s;
  sim::TimerHandle h;
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.timers_cancelled(), 0u);
}

TEST(Simulator, StaleHandleDoesNotCancelRecycledSlot) {
  // A fired timer's slot is recycled for the next one. The old handle's
  // generation no longer matches, so cancelling it must not kill the
  // timer now occupying the slot.
  sim::Simulator s;
  int first = 0;
  int second = 0;
  auto h1 = s.timer_at(1.0, [&] { ++first; });
  s.run();
  auto h2 = s.timer_at(2.0, [&] { ++second; });
  EXPECT_FALSE(s.cancel(h1));
  s.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(s.cancel(h2));  // h2 fired too
}

TEST(Simulator, CancellingOwnTimerFromItsHandlerIsNoop) {
  sim::Simulator s;
  int fired = 0;
  sim::TimerHandle h;
  h = s.timer_at(1.0, [&] {
    ++fired;
    EXPECT_FALSE(s.cancel(h));  // already firing: generation moved on
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelMiddleTimerKeepsRemainingOrder) {
  sim::Simulator s;
  std::vector<int> order;
  auto a = s.timer_at(1.0, [&] { order.push_back(1); });
  auto b = s.timer_at(2.0, [&] { order.push_back(2); });
  auto c = s.timer_at(3.0, [&] { order.push_back(3); });
  s.cancel(b);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  (void)a;
  (void)c;
}

TEST(Simulator, RearmedTimersDoNotAccumulate) {
  // The RTO pattern: cancel the predecessor, arm a replacement. Dead
  // timers must leave the queue immediately, so repeated rearming holds
  // exactly one slot instead of growing the queue per rearm.
  sim::Simulator s;
  sim::TimerHandle rto;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    s.cancel(rto);  // stale on the first pass, live afterwards
    rto = s.timer_after(10.0 + i, [&] { ++fired; });
    EXPECT_EQ(s.queue_size(), 1u);
  }
  EXPECT_EQ(s.timers_cancelled(), 999u);
  s.run();
  EXPECT_EQ(fired, 1);
}

// --- scheduling-in-the-past policy ------------------------------------

TEST(Simulator, PastScheduleClampsToNowAndCounts) {
  sim::Simulator s;
  SimTime fired_at = -1.0;
  s.at(5.0, [&] {
    s.at(1.0, [&] { fired_at = s.now(); });  // in the past: clamped
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);  // ran at now(), clock stayed monotonic
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.past_schedule_clamps(), 1u);
}

TEST(Simulator, OnTimeSchedulesAreNotCountedAsClamps) {
  sim::Simulator s;
  s.at(1.0, [&] { s.after(0.0, [] {}); });  // exactly now: legal
  s.run();
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
}

// --- (time, seq) order for batches, in-entry captures and timers -------

TEST(Simulator, LargeBatchPopsInTimeThenScheduleOrder) {
  // A large up-front batch, the "schedule everything, then run" shape of
  // experiment setup: ties on time must resolve by insertion order.
  sim::Simulator s;
  std::vector<std::pair<double, int>> expect;
  std::vector<int> order;
  for (int i = 0; i < 512; ++i) {
    const double t = static_cast<double>((512 - i) % 37);
    expect.emplace_back(t, i);
    s.at(t, [&order, i] { order.push_back(i); });
  }
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  ASSERT_EQ(order.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(order[k], expect[k].second);
  }
}

TEST(Simulator, SmallCapturesKeepOrderToo) {
  // Captures of at most one pointer ride inside the queue entry itself
  // (no arena slot); the in-entry path must obey the same total order.
  struct Cell {
    std::vector<int>* order;
    int id;
    void operator()() const { order->push_back(id); }
  };
  sim::Simulator s;
  std::vector<int> order;
  std::vector<Cell> cells;
  cells.reserve(256);
  std::vector<std::pair<double, int>> expect;
  for (int i = 0; i < 256; ++i) {
    const double t = static_cast<double>((997 * i) % 19);
    cells.push_back(Cell{&order, i});
    expect.emplace_back(t, i);
    s.at(t, [c = &cells[static_cast<std::size_t>(i)]] { (*c)(); });
  }
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  ASSERT_EQ(order.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(order[k], expect[k].second);
  }
}

TEST(Simulator, SchedulingDuringSortedDrainMergesInOrder) {
  // A second large batch scheduled while the first is still draining
  // must interleave with the first batch's remaining events by time.
  sim::Simulator s;
  std::vector<SimTime> times;
  for (int i = 0; i < 100; ++i) {
    s.at(static_cast<double>(i), [&] { times.push_back(s.now()); });
  }
  s.at(10.0, [&] {
    for (int j = 0; j < 100; ++j) {
      s.at(10.5 + static_cast<double>(j), [&] { times.push_back(s.now()); });
    }
  });
  s.run();
  EXPECT_EQ(times.size(), 200u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(Simulator, TimersInterleaveWithBatchedEventsInOrder) {
  // Cancellable timers (whose arena slots mirror their heap position)
  // and plain closures share the heap; the pop order must interleave
  // them by (time, seq).
  sim::Simulator s;
  std::vector<int> order;
  std::vector<std::pair<double, int>> expect;
  int id = 0;
  for (int i = 0; i < 64; ++i) {
    const double t = static_cast<double>((64 - i) % 11);
    expect.emplace_back(t, id);
    s.at(t, [&order, id] { order.push_back(id); });
    ++id;
    const double tt = static_cast<double>(i % 11);
    expect.emplace_back(tt, id);
    s.timer_at(tt, [&order, id] { order.push_back(id); });
    ++id;
  }
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  ASSERT_EQ(order.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(order[k], expect[k].second);
  }
}

// --- reserved seqs ----------------------------------------------------

TEST(Simulator, ReservedSeqPopsWhereItWasReserved) {
  // Equal-time events scheduled before and after the reservation; the
  // reserved event itself is scheduled later, from inside a handler,
  // and must still pop between them.
  sim::Simulator s;
  std::vector<int> order;
  std::vector<int>* o = &order;
  s.at(1.0, [o] { o->push_back(0); });
  const sim::ReservedSeq r = s.reserve_seq();
  s.at(1.0, [o] { o->push_back(2); });
  s.at(0.5, [&s, o, r] { s.at_reserved(1.0, r, [o] { o->push_back(1); }); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, ReservedSeqKeepsItsPlaceInASortedRun) {
  // A reservation in the middle of a batch of equal-time events must
  // pop between its neighbours by seq, both when it is scheduled before
  // the run and when a handler schedules it mid-run.
  struct Cell {
    std::vector<int>* order;
    int id;
  };
  for (const bool mid_run : {false, true}) {
    sim::Simulator s;
    std::vector<int> order;
    std::vector<Cell> cells;
    std::vector<int> expect;
    for (int i = 0; i < 21; ++i) {
      cells.push_back(Cell{&order, i});
      expect.push_back(i);
    }
    sim::ReservedSeq r;
    for (const Cell& c : cells) {
      if (c.id == 10) {
        r = s.reserve_seq();
        continue;
      }
      s.at(2.0, [p = &c] { p->order->push_back(p->id); });
    }
    const Cell* ten = &cells[10];
    if (mid_run) {
      for (int k = 0; k < 12; ++k) s.at(1.0, [] {});
      s.at(1.5, [&s, r, ten] {
        s.at_reserved(2.0, r, [ten] { ten->order->push_back(ten->id); });
      });
    } else {
      s.at_reserved(2.0, r, [ten] { ten->order->push_back(ten->id); });
    }
    s.run();
    EXPECT_EQ(order, expect) << "mid_run=" << mid_run;
  }
}

TEST(Simulator, PassedIsTrueOnlyBeforeTheRunningEvent) {
  sim::Simulator s;
  const sim::ReservedSeq before = s.reserve_seq();
  int checked = 0;
  s.at(1.0, [&] {
    EXPECT_TRUE(s.passed(1.0, before));
    EXPECT_TRUE(s.passed(0.5, before));
    EXPECT_FALSE(s.passed(1.5, before));
    const sim::ReservedSeq during = s.reserve_seq();
    EXPECT_FALSE(s.passed(1.0, during));
    EXPECT_TRUE(s.passed(0.5, during));
    ++checked;
  });
  const sim::ReservedSeq after = s.reserve_seq();
  s.at(1.0, [&] {
    // The second event at 1.0 has passed the reservation between them.
    EXPECT_TRUE(s.passed(1.0, after));
    ++checked;
  });
  EXPECT_FALSE(s.passed(0.0, before));  // nothing has run yet
  s.at(1.0, [&] { EXPECT_FALSE(s.passed(1.0, s.reserve_seq())); });
  s.run();
  EXPECT_EQ(checked, 2);
}

TEST(Simulator, RunUntilPassesItsBoundaryButStopDoesNot) {
  sim::Simulator s;
  s.at(1.0, [] {});
  const sim::ReservedSeq r = s.reserve_seq();
  s.run_until(2.0);
  EXPECT_TRUE(s.passed(2.0, r));    // every seq so far, up to the clock
  EXPECT_FALSE(s.passed(2.5, r));
  EXPECT_FALSE(s.passed(2.0, s.reserve_seq()));  // taken after the run

  sim::Simulator t;
  const sim::ReservedSeq early = t.reserve_seq();
  t.at(1.0, [&t] { t.stop(); });
  const sim::ReservedSeq late = t.reserve_seq();
  t.at(1.0, [] {});
  t.run();
  EXPECT_DOUBLE_EQ(t.now(), 1.0);
  EXPECT_TRUE(t.passed(1.0, early));
  EXPECT_FALSE(t.passed(1.0, late));  // ordered after the stopping event
  EXPECT_FALSE(t.passed(1.0, t.reserve_seq()));
}

// --- delay lanes --------------------------------------------------------

// A node that hands every delivered packet to a callback.
class ProbeNode : public sim::Node {
 public:
  explicit ProbeNode(std::function<void(const sim::Packet&)> on_receive)
      : Node(7, "probe"), on_receive_(std::move(on_receive)) {}
  void receive(sim::Packet pkt) override { on_receive_(pkt); }

 private:
  std::function<void(const sim::Packet&)> on_receive_;
};

sim::Packet tagged(std::uint64_t id) {
  sim::Packet p;
  p.uid = id;
  return p;
}

// Drives a simulator with a random mix of every way to schedule an
// event and checks the pop order against a reference: all events that
// were scheduled and not cancelled, sorted by (time, schedule index).
// A reserved event's index is taken when its seq is reserved.
class ReferenceOrder {
 public:
  explicit ReferenceOrder(std::uint64_t seed)
      : rng_(seed), probe_([this](const sim::Packet& p) { fired(p.uid); }) {}

  void run() {
    // Open with every delay at once, so more delays are pending than
    // there are lanes and some deliveries take the closure path.
    for (const SimTime dt : kRepeated) deliver(dt);
    for (const SimTime dt : kOneOff) deliver(dt);
    for (SimTime end = 0.25; !sim_.empty(); end += 0.375) {
      sim_.run_until(end);
      ASSERT_NO_FATAL_FAILURE(check_queue()) << "end=" << end;
      ASSERT_LT(end, 1e3) << "the run does not drain";
    }
    check_order();
    EXPECT_GT(cancels_, 0u);
    EXPECT_GT(reserved_runs_, 0u);
  }

  // The shape of a parsim mailbox drain: before each run_window, a few
  // hundred cross-shard arrivals (deliver_at) land inside the coming
  // window [w, w + L) while the heap holds live timers far beyond it.
  void run_windows() {
    for (int k = 0; k < 64; ++k) {
      const SimTime t = 1e3 + k;
      const std::uint64_t id = add(t);
      timers_.emplace_back(sim_.timer_at(t, [this, id] { fired(id); }), id);
    }
    constexpr SimTime kLookahead = 0.25;
    for (SimTime w = 0.0; w < 4.0; w += kLookahead) {
      for (auto n = 200 + rng_() % 200; n > 0; --n) {
        const SimTime t =
            w + kLookahead * static_cast<double>(rng_() % 64) / 64.0;
        sim_.deliver_at(t, &probe_, tagged(add(t)));
      }
      ASSERT_NO_FATAL_FAILURE(check_queue()) << "drained at " << w;
      sim_.run_window(w + kLookahead);
      ASSERT_NO_FATAL_FAILURE(check_queue()) << "window end " << w + kLookahead;
    }
    sim_.run();
    ASSERT_NO_FATAL_FAILURE(check_queue());
    check_order();
  }

 private:
  // Three delays that recur and twelve used once each: fifteen in all,
  // more than the kernel has lanes.
  static constexpr SimTime kRepeated[3] = {0.5, 0.75, 1.0};
  static constexpr SimTime kOneOff[12] = {0.0625, 0.125, 0.1875, 0.3125,
                                          0.4375, 0.625,  0.6875, 0.8125,
                                          0.875,  0.9375, 1.125,  1.25};
  static constexpr std::uint64_t kBudget = 4000;

  struct Reserved {
    sim::ReservedSeq seq;
    std::uint64_t id;
  };
  struct Cell {
    ReferenceOrder* owner;
    std::uint64_t id;
  };

  void check_queue() {
    ASSERT_EQ(sim_.queue_size(), pending_.size());
    ASSERT_EQ(sim_.empty(), pending_.empty());
    const SimTime next = pending_.empty()
                             ? std::numeric_limits<SimTime>::infinity()
                             : pending_.begin()->first;
    ASSERT_EQ(sim_.next_event_time(), next);
  }

  void check_order() {
    std::sort(scheduled_.begin(), scheduled_.end());
    ASSERT_EQ(order_.size(), scheduled_.size());
    for (std::size_t k = 0; k < order_.size(); ++k) {
      ASSERT_EQ(order_[k], scheduled_[k].second) << "pop " << k;
    }
  }

  std::uint64_t add(SimTime t) {
    const std::uint64_t id = next_id_++;
    scheduled_.emplace_back(t, id);
    pending_.emplace(t, id);
    return id;
  }

  void deliver(SimTime dt) {
    const std::uint64_t id = add(sim_.now() + dt);
    sim_.deliver_after(dt, &probe_, tagged(id));
  }

  SimTime draw_delay() {
    if (one_off_ < 12 && rng_() % 8 == 0) return kOneOff[one_off_++];
    return kRepeated[rng_() % 3];
  }

  void fired(std::uint64_t id) {
    ASSERT_FALSE(pending_.empty());
    const auto head = *pending_.begin();
    ASSERT_EQ(head.second, id) << "popped out of order";
    ASSERT_EQ(head.first, sim_.now());
    pending_.erase(pending_.begin());
    // The running event has already left the queue.
    ASSERT_EQ(sim_.queue_size(), pending_.size());
    order_.push_back(id);
    const auto mine = [id](const auto& t) { return t.second == id; };
    timers_.erase(std::remove_if(timers_.begin(), timers_.end(), mine),
                  timers_.end());
    if (next_id_ >= kBudget) return;
    for (int k = static_cast<int>(rng_() % 4); k > 0; --k) schedule_one();
  }

  void schedule_one() {
    const SimTime now = sim_.now();
    switch (rng_() % 8) {
      case 0: {  // a closure in the arena (two words of capture)
        const SimTime t = now + draw_delay();
        const std::uint64_t id = add(t);
        sim_.at(t, [this, id] { fired(id); });
        break;
      }
      case 1: {  // an in-entry closure (one pointer)
        cells_.push_back(Cell{this, 0});
        Cell* c = &cells_.back();
        const SimTime dt = draw_delay();
        c->id = add(now + dt);
        sim_.after(dt, [c] { c->owner->fired(c->id); });
        break;
      }
      case 2: {  // a timer, sometimes cancelled while live
        const SimTime dt = draw_delay();
        const std::uint64_t id = add(now + dt);
        timers_.emplace_back(sim_.timer_after(dt, [this, id] { fired(id); }),
                             id);
        if (rng_() % 2 == 0) cancel_one();
        break;
      }
      case 3: {  // reserve now, schedule at the reservation later
        reserved_.push_back(Reserved{sim_.reserve_seq(), next_id_++});
        break;
      }
      case 4: {
        if (reserved_.empty()) break;
        const Reserved r = reserved_.front();
        reserved_.erase(reserved_.begin());
        const SimTime t = now + draw_delay();
        ASSERT_FALSE(sim_.passed(t, r.seq));
        scheduled_.emplace_back(t, r.id);
        pending_.emplace(t, r.id);
        cells_.push_back(Cell{this, r.id});
        Cell* c = &cells_.back();
        sim_.at_reserved(t, r.seq, [c] {
          ++c->owner->reserved_runs_;
          c->owner->fired(c->id);
        });
        break;
      }
      default:
        deliver(draw_delay());
        break;
    }
  }

  void cancel_one() {
    if (timers_.empty()) return;
    const std::size_t k = rng_() % timers_.size();
    sim::TimerHandle h = timers_[k].first;
    const std::uint64_t id = timers_[k].second;
    timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(k));
    ASSERT_TRUE(sim_.cancel(h));
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second == id) {
        scheduled_.erase(std::find(scheduled_.begin(), scheduled_.end(), *it));
        pending_.erase(it);
        break;
      }
    }
    ++cancels_;
  }

  sim::Simulator sim_;
  std::mt19937_64 rng_;
  ProbeNode probe_;
  std::uint64_t next_id_ = 0;
  std::size_t one_off_ = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> scheduled_;
  std::set<std::pair<SimTime, std::uint64_t>> pending_;
  std::vector<std::uint64_t> order_;
  std::vector<std::pair<sim::TimerHandle, std::uint64_t>> timers_;
  std::vector<Reserved> reserved_;
  std::deque<Cell> cells_;
  std::uint64_t cancels_ = 0;
  std::uint64_t reserved_runs_ = 0;
};

TEST(Simulator, DeliveryLanesMatchAReferenceOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 9001u}) {
    SCOPED_TRACE(seed);
    ReferenceOrder(seed).run();
    ReferenceOrder(seed).run_windows();
  }
}

TEST(Simulator, LaneDeliveryAndHeapEventTieInScheduleOrder) {
  for (const bool delivery_first : {true, false}) {
    sim::Simulator s;
    std::vector<int> order;
    ProbeNode probe([&order](const sim::Packet&) { order.push_back(0); });
    const auto heap_event = [&] {
      s.at(1.0, [&order] { order.push_back(1); });
    };
    if (!delivery_first) heap_event();
    s.deliver_after(1.0, &probe, tagged(0));
    if (delivery_first) heap_event();
    s.run();
    EXPECT_EQ(order, delivery_first ? (std::vector<int>{0, 1})
                                    : (std::vector<int>{1, 0}));
  }
}

TEST(Simulator, RunWindowLeavesALaneEventAtItsEnd) {
  sim::Simulator s;
  int received = 0;
  ProbeNode probe([&received](const sim::Packet&) { ++received; });
  s.deliver_after(1.0, &probe, tagged(0));
  s.run_window(1.0);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(s.queue_size(), 1u);
  EXPECT_EQ(s.next_event_time(), 1.0);
  s.run_until(1.0);
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.now(), 1.0);
}

TEST(Simulator, StopInsideADeliveryKeepsPassedAtThatDelivery) {
  sim::Simulator s;
  std::vector<std::uint64_t> order;
  ProbeNode probe([&](const sim::Packet& p) {
    order.push_back(p.uid);
    if (p.uid == 1) s.stop();
  });
  const sim::ReservedSeq before = s.reserve_seq();
  s.deliver_after(1.0, &probe, tagged(1));
  const sim::ReservedSeq after = s.reserve_seq();
  s.deliver_after(1.0, &probe, tagged(2));
  s.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1}));
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_TRUE(s.passed(1.0, before));
  EXPECT_FALSE(s.passed(1.0, after));
  EXPECT_EQ(s.queue_size(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
}

// --- port / link timing ---------------------------------------------

class SinkNode : public sim::Node {
 public:
  using Node::Node;
  void receive(sim::Packet pkt) override {
    packets.push_back(pkt);
    arrival_times.push_back(last_now ? *last_now : -1.0);
  }
  std::vector<sim::Packet> packets;
  std::vector<SimTime> arrival_times;
  const SimTime* last_now = nullptr;
};

TEST(Port, SerializationPlusPropagationDelay) {
  sim::Simulator s;
  SinkNode sink(0, "sink");
  SimTime arrival = -1.0;
  // 1000 bytes at 1 Mbps = 8 ms serialization; +1 ms propagation.
  sim::Port port(s, units::mbps(1), 0.001,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  // Wrap the sink to capture the arrival time.
  class TimedSink : public sim::Node {
   public:
    TimedSink(sim::Simulator& sim, SimTime& t) : Node(1, "t"), sim_(sim), t_(t) {}
    void receive(sim::Packet) override { t_ = sim_.now(); }
    sim::Simulator& sim_;
    SimTime& t_;
  } timed(s, arrival);
  port.attach_peer(&timed);

  sim::Packet pkt;
  pkt.size_bytes = 1000;
  port.send(pkt);
  s.run();
  EXPECT_NEAR(arrival, 0.008 + 0.001, 1e-12);
  EXPECT_EQ(port.packets_sent(), 1u);
  EXPECT_EQ(port.bytes_sent(), 1000u);
}

TEST(Port, BackToBackPacketsSpacedBySerialization) {
  sim::Simulator s;
  std::vector<SimTime> arrivals;
  class TimedSink : public sim::Node {
   public:
    TimedSink(sim::Simulator& sim, std::vector<SimTime>& v)
        : Node(1, "t"), sim_(sim), v_(v) {}
    void receive(sim::Packet) override { v_.push_back(sim_.now()); }
    sim::Simulator& sim_;
    std::vector<SimTime>& v_;
  } timed(s, arrivals);

  sim::Port port(s, units::mbps(8), 0.0,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&timed);
  sim::Packet pkt;
  pkt.size_bytes = 1000;  // 1 ms at 8 Mbps
  port.send(pkt);
  port.send(pkt);
  port.send(pkt);
  s.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-12);
  EXPECT_NEAR(arrivals[1], 0.002, 1e-12);
  EXPECT_NEAR(arrivals[2], 0.003, 1e-12);
}

TEST(Port, QueueHoldsPacketsWhileBusy) {
  sim::Simulator s;
  int received = 0;
  class CountSink : public sim::Node {
   public:
    CountSink(int& c) : Node(1, "c"), c_(c) {}
    void receive(sim::Packet) override { ++c_; }
    int& c_;
  } sink(received);

  sim::Port port(s, units::mbps(1), 0.0,
                 std::make_unique<queue::DropTailQueue>(0, 2));
  port.attach_peer(&sink);
  sim::Packet pkt;
  pkt.size_bytes = 125;  // 1 ms each
  // First goes to the wire, next two fill the 2-packet queue, the rest drop.
  for (int i = 0; i < 5; ++i) port.send(pkt);
  EXPECT_EQ(port.disc().drops(), 2u);
  s.run();
  EXPECT_EQ(received, 3);
}

// A port's transmitter release runs only when a packet waits behind
// it; the cases below pin the behaviour an eagerly scheduled release
// gives: the empty dequeue a skipped release would have made, and the
// tie order of arrivals at exactly the end of a transmission.

class RecordingSink : public sim::Node {
 public:
  RecordingSink() : Node(1, "rec") {}
  void receive(sim::Packet pkt) override { packets.push_back(pkt); }
  std::vector<sim::Packet> packets;
};

TEST(Port, CodelIntervalRestartsAfterAnIdleTransmitter) {
  // 125 B at 1 Mbps = 1 ms per packet; every queued packet waits at
  // least 1 ms, above the 0.5 ms target. The first burst drains before
  // the 10 ms interval runs out, leaving CoDel's above-target clock set.
  // The release after its last packet finds the queue empty, and that
  // empty dequeue clears the clock, so the second burst starts a fresh
  // interval and nothing is marked. A stale clock would mark at once.
  sim::Simulator s;
  RecordingSink sink;
  queue::CodelConfig cfg;
  cfg.target = 0.5e-3;
  cfg.interval = 10e-3;
  sim::Port port(s, units::mbps(1), 0.0,
                 std::make_unique<queue::CodelQueue>(0, 0, cfg));
  port.attach_peer(&sink);
  sim::Packet pkt;
  pkt.size_bytes = 125;
  pkt.ect = true;
  for (int i = 0; i < 5; ++i) port.send(pkt);
  s.at(20e-3, [&port, &pkt] {
    for (int i = 0; i < 3; ++i) port.send(pkt);
  });
  s.run();
  ASSERT_EQ(sink.packets.size(), 8u);
  for (const sim::Packet& p : sink.packets) EXPECT_FALSE(p.ce);
  EXPECT_EQ(port.counters().marked, 0u);
}

TEST(Port, WrrCreditRefillsWhenTheTransmitterGoesIdle) {
  // Weights {3, 1}. The first transmission leaves class 0 with 2 of its
  // 3 credits; the release after it finds the port empty, and that
  // empty dequeue rotates WRR back to class 0 with its credit refilled.
  // The next backlog in both classes is then served 3:1 from a fresh
  // rotation.
  sim::Simulator s;
  RecordingSink sink;
  std::vector<std::unique_ptr<sim::QueueDisc>> kids;
  kids.push_back(std::make_unique<queue::DropTailQueue>(0, 0));
  kids.push_back(std::make_unique<queue::DropTailQueue>(0, 0));
  sim::Port port(s, units::mbps(8), 0.0,
                 std::make_unique<queue::MultiQueueDisc>(
                     std::move(kids), queue::SchedPolicy::kWrr,
                     std::vector<std::uint32_t>{3, 1}));
  port.attach_peer(&sink);
  const auto send = [&port](std::uint8_t prio) {
    sim::Packet p;
    p.size_bytes = 1000;  // 1 ms at 8 Mbps
    p.prio = prio & 0x3;
    port.send(p);
  };
  send(0);  // to the wire
  send(0);  // queued, then served on class 0's first credit
  s.at(10e-3, [&send] {
    for (const std::uint8_t prio : {0, 0, 0, 0, 0, 1, 1}) send(prio);
  });
  s.run();
  std::vector<int> order;
  for (const sim::Packet& p : sink.packets) order.push_back(p.prio);
  EXPECT_EQ(order, (std::vector<int>{0, 0, 0, 0, 0, 0, 1, 0, 1}));
}

TEST(Port, ArrivalAtTheEndOfATransmissionOrdersAgainstTheRelease) {
  // Two ports each start a transmission at t=0 that ends at tx. On port
  // a, an arrival at tx was scheduled before the transmission began, so
  // it runs before the release and finds the transmitter busy; on port
  // b, one scheduled afterwards runs after the release and finds it
  // idle.
  sim::Simulator s;
  RecordingSink sink;
  sim::Port a(s, units::mbps(1), 0.0,
              std::make_unique<queue::DropTailQueue>(0, 0));
  sim::Port b(s, units::mbps(1), 0.0,
              std::make_unique<queue::DropTailQueue>(0, 0));
  a.attach_peer(&sink);
  b.attach_peer(&sink);
  sim::Packet pkt;
  pkt.size_bytes = 125;
  const SimTime tx = units::transmission_time(pkt.size_bytes, units::mbps(1));
  s.at(s.now() + tx, [&a, &pkt] { a.send(pkt); });
  a.send(pkt);
  b.send(pkt);
  s.at(s.now() + tx, [&b, &pkt] { b.send(pkt); });
  s.run();
  EXPECT_EQ(a.counters().bypassed, 1u);
  EXPECT_EQ(a.counters().enqueued, 1u);
  EXPECT_EQ(b.counters().bypassed, 2u);
  EXPECT_EQ(b.counters().enqueued, 0u);
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Port, CrossShardArrivalMatchesLocalArrival) {
  // A port exporting to a mailbox must stamp the arrival exactly as the
  // local path schedules it, now + (tx + prop): (now + tx) + prop rounds
  // differently for some send times, this one included (1500 B at
  // 10 Gbps with 25 us of propagation, sent at t = 0.5).
  sim::Simulator s;
  SimTime local = -1.0;
  ProbeNode sink([&](const sim::Packet&) { local = s.now(); });
  parsim::Mailbox mailbox;
  sim::Port near(s, units::gbps(10), 25e-6,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  sim::Port far(s, units::gbps(10), 25e-6,
                std::make_unique<queue::DropTailQueue>(0, 0));
  near.attach_peer(&sink);
  far.attach_peer(&sink);
  far.set_remote(&mailbox);
  sim::Packet pkt;
  pkt.size_bytes = 1500;
  s.at(0.5, [&] {
    near.send(pkt);
    far.send(pkt);
  });
  s.run();
  ASSERT_EQ(mailbox.size(), 1u);
  EXPECT_EQ(mailbox.entries()[0].when, local);
}

TEST(Port, RebindingWithAQueuedPacketThrows) {
  // The queued packet's handle points into the first simulator's store,
  // and its transmitter release is scheduled on the first kernel.
  sim::Simulator first;
  sim::Simulator second;
  RecordingSink sink;
  sim::Port port(first, units::mbps(1), 0.0,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&sink);
  sim::Packet pkt;
  pkt.size_bytes = 125;
  port.send(pkt);  // on the wire
  port.send(pkt);  // queued behind it
  ASSERT_EQ(first.packet_store().size(), 1u);
  EXPECT_THROW(port.bind_simulator(second), std::logic_error);
  // The port is left as it was and still drains on its own kernel.
  EXPECT_EQ(&port.simulator(), &first);
  first.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(first.packet_store().size(), 0u);
}

TEST(Port, IdlePortRebindsAndQueuesInTheNewStore) {
  sim::Simulator first;
  sim::Simulator second;
  RecordingSink sink;
  sim::Port port(first, units::mbps(1), 0.0,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&sink);
  sim::Packet pkt;
  pkt.size_bytes = 125;
  port.send(pkt);
  first.run();  // the transmitter went idle again on the first kernel
  port.bind_simulator(second);
  EXPECT_EQ(&port.simulator(), &second);
  pkt.uid = 7;
  port.send(pkt);
  port.send(pkt);  // waits behind the first: held by the new store
  EXPECT_EQ(first.packet_store().size(), 0u);
  EXPECT_EQ(second.packet_store().size(), 1u);
  second.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.packets[2].uid, 7u);
  EXPECT_EQ(second.packet_store().size(), 0u);
}

// --- network / routing ------------------------------------------------

class Collector : public sim::PacketSink {
 public:
  void deliver(sim::Packet pkt) override { packets.push_back(pkt); }
  std::vector<sim::Packet> packets;
};

// Every port and host points at its network's simulator, so a network
// is built where it is used and never moved.
static_assert(!std::is_move_constructible_v<sim::Network>);

TEST(Network, HostToHostThroughOneSwitch) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();

  Collector col;
  b.bind_flow(5, &col);
  sim::Packet pkt;
  pkt.flow = 5;
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  ASSERT_EQ(col.packets.size(), 1u);
  EXPECT_EQ(col.packets[0].flow, 5u);
  EXPECT_EQ(sw.unrouted_drops(), 0u);
}

TEST(Network, MultiHopRoutingAcrossSwitches) {
  // a - sw1 - sw2 - sw3 - b : BFS routes must span the chain.
  sim::Network net;
  auto& sw1 = net.add_switch("sw1");
  auto& sw2 = net.add_switch("sw2");
  auto& sw3 = net.add_switch("sw3");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw1, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw3, units::gbps(1), 1e-6, q, q);
  net.connect_switches(sw1, sw2, units::gbps(1), 1e-6, q, q);
  net.connect_switches(sw2, sw3, units::gbps(1), 1e-6, q, q);
  net.build_routes();

  Collector col;
  b.bind_flow(9, &col);
  sim::Packet pkt;
  pkt.flow = 9;
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  ASSERT_EQ(col.packets.size(), 1u);

  // And the reverse direction.
  Collector col_a;
  a.bind_flow(10, &col_a);
  sim::Packet rev;
  rev.flow = 10;
  rev.src = b.id();
  rev.dst = a.id();
  rev.size_bytes = 100;
  b.send(rev);
  net.sim().run();
  ASSERT_EQ(col_a.packets.size(), 1u);
}

TEST(Network, UnroutablePacketCountedNotCrash) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();
  sim::Packet pkt;
  pkt.flow = 1;
  pkt.src = a.id();
  pkt.dst = 999;  // nobody
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  EXPECT_EQ(sw.unrouted_drops(), 1u);
}

TEST(Network, UnboundFlowAtHostCounted) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();
  sim::Packet pkt;
  pkt.flow = 77;  // not bound at b
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  EXPECT_EQ(b.unbound_drops(), 1u);
}

TEST(Network, RebindingAFlowReplacesItsSink) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();
  sim::Packet pkt;
  pkt.flow = 5;
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;

  Collector first;
  Collector second;
  b.bind_flow(5, &first);
  b.bind_flow(5, &second);
  a.send(pkt);
  net.sim().run();
  EXPECT_TRUE(first.packets.empty());
  EXPECT_EQ(second.packets.size(), 1u);

  b.unbind_flow(5);
  a.send(pkt);
  net.sim().run();
  EXPECT_EQ(second.packets.size(), 1u);
  EXPECT_EQ(b.unbound_drops(), 1u);
}

TEST(FlowTable, MatchesAnOrderedMapThroughBindUnbindChurn) {
  std::vector<Collector> sinks(4);
  sim::FlowTable table;
  std::map<sim::FlowId, sim::PacketSink*> want;
  std::set<sim::FlowId> seen;
  const auto bind = [&](sim::FlowId flow, sim::PacketSink* sink) {
    table.insert(flow, sink);
    want[flow] = sink;
    seen.insert(flow);
  };
  const auto check = [&](const char* step) {
    EXPECT_EQ(table.size(), want.size()) << step;
    for (sim::FlowId flow : seen) {
      const auto it = want.find(flow);
      EXPECT_EQ(table.find(flow), it == want.end() ? nullptr : it->second)
          << step << ", flow " << flow;
    }
  };

  for (sim::FlowId flow : {0u, 1u, 4242u, 0xffffffffu}) bind(flow, &sinks[0]);
  seen.insert(2);  // never bound
  check("edge ids");

  // Consecutive ids, as Network::new_flow hands them out, then ids that
  // differ only in their high bits.
  std::vector<sim::FlowId> many;
  for (sim::FlowId i = 0; i < 500; ++i) many.push_back(1000 + i);
  for (sim::FlowId i = 1; i <= 500; ++i) many.push_back(i << 20);
  for (std::size_t i = 0; i < many.size(); ++i) bind(many[i], &sinks[i % 4]);
  check("1,000 binds");

  for (std::size_t i = 0; i < many.size(); i += 2) {
    table.erase(many[i]);
    want.erase(many[i]);
  }
  table.erase(3);  // never bound: a no-op
  check("every other one unbound");

  bind(many[0], &sinks[1]);   // unbound, bound again
  bind(many[1], &sinks[3]);   // still bound, overwritten
  bind(4242, &sinks[2]);
  check("rebinds");
}

TEST(Network, FlowIdsAreUnique) {
  sim::Network net;
  const auto f1 = net.new_flow();
  const auto f2 = net.new_flow();
  EXPECT_NE(f1, f2);
}

}  // namespace
}  // namespace dtdctcp
