// Figure 2: the marking strategies of DCTCP vs DT-DCTCP, demonstrated on
// one synthetic queue excursion. The paper's illustration: DCTCP marks
// exactly while the queue is at/above K; DT-DCTCP marks from the upward
// K1 crossing until the queue falls back below K2.
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "queue/factory.h"

using namespace dtdctcp;

namespace {

// Drives a discipline through a triangular excursion 0 -> peak -> 0 by
// enqueue/dequeue bursts and prints the occupancy band in which arriving
// packets got marked.
void drive(sim::QueueDisc& q, const char* name, int peak) {
  int first_mark_up = -1, last_mark_up = -1;
  int first_mark_down = -1, last_mark_down = -1;

  // Rising phase: net +1 per step (2 enqueues, 1 dequeue).
  for (int level = 1; level <= peak; ++level) {
    sim::Packet a;
    a.size_bytes = 1500;
    a.ect = true;
    q.enqueue(a, 0.0);
    sim::Packet b = a;
    q.enqueue(b, 0.0);
    sim::Packet out;
    q.dequeue(out, 0.0);
    if (b.ce) {
      if (first_mark_up < 0) first_mark_up = static_cast<int>(q.packets());
      last_mark_up = static_cast<int>(q.packets());
    }
  }
  // Falling phase: net -1 per step (1 enqueue, 2 dequeues).
  for (int level = peak; level >= 2; --level) {
    sim::Packet a;
    a.size_bytes = 1500;
    a.ect = true;
    q.enqueue(a, 0.0);
    const bool marked = a.ce;
    sim::Packet out;
    q.dequeue(out, 0.0);
    q.dequeue(out, 0.0);
    if (marked) {
      if (first_mark_down < 0) first_mark_down = static_cast<int>(q.packets()) + 2;
      last_mark_down = static_cast<int>(q.packets()) + 2;
    }
  }
  std::printf("%-10s rising: marks in occupancy [%d..%d]   "
              "falling: marks in [%d..%d]\n",
              name, first_mark_up, last_mark_up, first_mark_down,
              last_mark_down);
}

}  // namespace

int main() {
  bench::header("Figure 2", "marking strategies of DCTCP and DT-DCTCP");
  std::printf("synthetic excursion 0 -> 80 -> 0 packets; K=40, K1=30, K2=50\n\n");

  const auto dc = queue::MarkingRule::dctcp(40.0).queue_factory(0, 0)();
  drive(*dc, "DCTCP", 80);

  const auto dt =
      queue::MarkingRule::dt_dctcp(30.0, 50.0).queue_factory(0, 0)();
  drive(*dt, "DT-DCTCP", 80);

  bench::expectation(
      "DCTCP marks while occupancy >= 40 on both phases. DT-DCTCP starts "
      "marking around 30 on the rise and keeps marking down to ~50 on the "
      "fall (then stops) — marking begins earlier and is released earlier.");
  return 0;
}
