// DCTCP fluid model (Alizadeh et al., SIGMETRICS'11; paper Eq. 1-3).
//
//   dW/dt     = 1/R0 - W(t) a(t) / (2 R0) * p(t - R0)
//   d a /dt   = g/R0 * (p(t - R0) - a(t))
//   dq/dt     = N W(t)/R0 - C          (clamped so q stays >= 0)
//
// p is the marking decision applied to the *delayed* queue trajectory:
// the relay 1{q >= K} for DCTCP, the hysteresis automaton for DT-DCTCP.
// Integrated with RK4 at a fixed step, treating p as constant across a
// step (it is piecewise constant anyway); the delayed value comes from a
// ring buffer of queue history advanced in lock-step.
#pragma once

#include <cstddef>
#include <vector>

#include "fluid/marking.h"
#include "stats/time_series.h"
#include "util/units.h"

namespace dtdctcp::fluid {

struct FluidParams {
  double capacity_pps = 833333.0;  ///< C, packets/sec (10 Gbps @ 1.5 KB)
  double flows = 10.0;             ///< N
  double rtt = 1e-4;               ///< R0 seconds
  double g = 1.0 / 16.0;           ///< EWMA gain
  queue::MarkingRule marking = queue::MarkingRule::dctcp(40.0);  ///< packets
  double w_floor = 1.0;  ///< congestion-window floor in packets (real TCP
                         ///< cannot send less than one segment per RTT);
                         ///< 0 disables the floor (pure model)

  /// Paper-faithful Eq. 1-3 use a fixed R0, which makes the model
  /// diverge once N > R0*C/2 (the equilibrium per-flow window under
  /// saturated marking is 2 packets, so demand N*2/R0 exceeds C with no
  /// queue-delay feedback to absorb it). Enabling dynamic_rtt replaces
  /// R0 with R(t) = rtt + q(t)/C in the rate terms (the feedback delay
  /// stays R0), which is how the physical system self-limits.
  bool dynamic_rtt = false;
};

struct FluidState {
  double w = 0.0;      ///< per-flow window, packets
  double alpha = 0.0;  ///< marked fraction estimate
  double q = 0.0;      ///< queue, packets
};

/// Closed-form operating point (paper §V-A): W0 = R0*C/N,
/// alpha0 = p0 = sqrt(2/W0), q0 = marking midpoint.
FluidState operating_point(const FluidParams& params);

class FluidModel {
 public:
  /// `dt` defaults to R0/200 when <= 0.
  explicit FluidModel(FluidParams params, double dt = 0.0);

  void set_state(const FluidState& s) { state_ = s; }
  const FluidState& state() const { return state_; }
  double time() const { return time_; }
  double dt() const { return dt_; }

  /// Advances one step.
  void step();

  /// Runs for `duration` seconds; if `trace` is non-null, appends
  /// (t, q) samples every `record_every` seconds.
  void run(double duration, stats::TimeSeries* trace = nullptr,
           double record_every = 0.0);

  /// Steps until the model clock reaches (or just passes) `t`. The
  /// event-cadence entry point for hybrid co-simulation: a simulator
  /// timer calls this with the current simulated time, so the fluid
  /// aggregate advances in lock-step with the packet world. No-op when
  /// t <= time().
  void advance_to(double t);

  /// Hybrid coupling, packet -> fluid: an external arrival stream (the
  /// measured foreground packet rate, pps) added to dq/dt, so the
  /// aggregate's queue derivative becomes N*W/R + a_ext - C. Capacity
  /// consumed by real packets is thereby accounted against the fluid
  /// queue's drain. 0 restores the closed model.
  void set_external_arrival_pps(double pps) { ext_arrival_pps_ = pps; }
  double external_arrival_pps() const { return ext_arrival_pps_; }

  /// Hybrid coupling, marking: an external queue contribution (the real
  /// packet queue's depth, in packets) added to the occupancy samples
  /// the delayed marking automaton consumes — and, under dynamic_rtt,
  /// to the queueing-delay term — so the fluid marking loop reacts to
  /// the *total* queue, not just its own share. The fluid state q
  /// itself stays background-only.
  void set_queue_offset(double pkts) { queue_offset_ = pkts; }
  double queue_offset() const { return queue_offset_; }

  /// Re-initializes state, refills the delayed-queue history ring with
  /// the new q (plus the current queue offset), and resets the marking
  /// automaton — the clean way to start an aggregate from idle
  /// ({w: 1, alpha: 0, q: 0}) rather than the operating point the
  /// constructor assumes. The model clock is preserved.
  void reset(const FluidState& s);

  /// Current delayed marking value p(t - R0).
  double p_delayed() const { return p_; }
  /// The delayed total-queue sample the next marking decision will see.
  double delayed_queue() const { return delayed_q(); }

 private:
  double delayed_q() const;

  FluidParams params_;
  double dt_;
  FluidState state_;
  double time_ = 0.0;

  std::vector<double> history_;  ///< q ring buffer, one slot per step
  std::size_t head_ = 0;         ///< next slot to write
  std::size_t delay_steps_;
  MarkingAutomaton automaton_;
  double p_ = 0.0;
  double ext_arrival_pps_ = 0.0;  ///< hybrid: measured packet arrivals
  double queue_offset_ = 0.0;     ///< hybrid: real packet-queue depth
};

/// Peak-to-peak amplitude / 2 of the trace restricted to t >= from.
double oscillation_amplitude(const stats::TimeSeries& trace, double from);

}  // namespace dtdctcp::fluid
