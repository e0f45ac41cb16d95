// Hybrid fluid/packet co-simulation: one FluidBackground collapses
// thousands of long-lived background flows sharing a bottleneck into a
// single fluid::FluidModel aggregate, coupled into the packet path in
// both directions.
//
//   fluid -> packet:  the aggregate's queue share is added to the
//     bottleneck discipline's occupancy (FifoBase::set_fluid_occupancy)
//     so foreground packets are ECN-marked against the total backlog,
//     and the port's serialization rate is scaled by the residual
//     capacity fraction 1 - N*W/(R*C) (Port::set_available_rate_fraction)
//     so foreground packets queue behind the background's bandwidth
//     share.
//   packet -> fluid:  each coupling tick measures the foreground bytes
//     the port actually transmitted since the previous tick and feeds
//     that rate into the fluid queue derivative (dq/dt = N*W/R + a_fg
//     - C), and publishes the real packet-queue depth into the fluid
//     marking automaton's delayed occupancy stream — the aggregate
//     backs off when foreground traffic fills the queue.
//
// The aggregate is stepped on a fixed-cadence simulator timer (default
// R0/4), so all of its state lives on the simulator that owns the
// bottleneck port: under parsim sharding each aggregate is shard-local
// by construction and the runs stay digest-deterministic.
//
// Conservation story: fluid bytes never enter the packet ledger. Every
// unit of link capacity is accounted exactly once — foreground bytes
// via real port transmissions, background bytes via the fluid integral
// (whose drain term is the capacity foreground measurably did not use).
// The invariant checker audits each published coupling sample
// (finite, non-negative queue share, residual fraction in (0, 1])
// through the fluid_coupled hook, while every packet invariant
// (conservation, FIFO, occupancy, counters) is untouched.
//
// Correctness anchor: with flows == 0 the aggregate publishes a +0.0
// queue share and a 1.0 rate fraction. Both couplings are bit-exact
// identities (x + 0.0 == x, rate * 1.0 == rate), and the coupling
// timer cannot reorder packet events (the kernel orders by (time,
// insertion-seq) and inserting timers preserves the relative order of
// all other events) — so a zero-share hybrid run is byte-identical to
// a packet-only run. Pinned by tests/hybrid_test.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fluid/fluid_model.h"
#include "sim/port.h"
#include "stats/metrics.h"
#include "util/units.h"

namespace dtdctcp::queue {
class FifoBase;
}  // namespace dtdctcp::queue

namespace dtdctcp::hybrid {

struct FluidBackgroundConfig {
  /// N long-lived background flows in the aggregate. 0 = inert
  /// aggregate: the coupling timer still runs, but publishes exactly
  /// 0.0 / 1.0 (the byte-identity case).
  double flows = 0.0;
  double rtt = 1e-4;       ///< R0 of the background flows, seconds
  double g = 1.0 / 16.0;   ///< DCTCP EWMA gain
  /// Marking rule the aggregate's delayed automaton runs; should mirror
  /// the bottleneck discipline's configuration.
  queue::MarkingRule marking = queue::MarkingRule::dctcp(20.0);
  double mtu_bytes = 1500.0;  ///< segment size for pps conversions
  /// Coupling cadence (simulated seconds between ticks); <= 0 -> rtt/4.
  SimTime couple_dt = 0.0;
  /// RK4 integration step; <= 0 -> rtt/200 (the FluidModel default).
  double fluid_dt = 0.0;
  /// Cap on the link fraction the aggregate may claim, so foreground
  /// packets always retain some service capacity.
  double max_share = 0.95;
  /// Simulated time after which the coupler stops rescheduling itself
  /// (the published gauges freeze). Required for runs that must drain
  /// (parsim fabrics, the fuzzer); 0 = couple forever until stop().
  SimTime horizon = 0.0;
};

/// One fluid background aggregate bound to one bottleneck egress port.
/// Construct, then attach() once the port sits on its final simulator
/// (after parsim rebinding). Must be declared *after* the network so it
/// is destroyed first and can detach its gauges from the live port.
class FluidBackground {
 public:
  FluidBackground(const FluidBackgroundConfig& cfg, DataRate link_bps);
  ~FluidBackground();
  FluidBackground(const FluidBackground&) = delete;
  FluidBackground& operator=(const FluidBackground&) = delete;

  /// Wires the gauges into `port` (occupancy coupling requires the
  /// port's discipline to be a queue::FifoBase; rate coupling is
  /// unconditional) and schedules the first coupling tick on the
  /// port's simulator.
  void attach(sim::Port& port);

  /// Ceases rescheduling; the already-pending tick becomes a no-op and
  /// the published gauges keep their last values.
  void stop() { stopped_ = true; }

  // Live coupling gauges (what the packet path reads).
  double queue_pkts() const { return q_pkts_; }
  double share() const { return 1.0 - avail_frac_; }
  double available_fraction() const { return avail_frac_; }

  const FluidBackgroundConfig& config() const { return cfg_; }
  /// Null when flows == 0 (inert aggregate).
  const fluid::FluidModel* model() const { return model_.get(); }
  std::uint64_t ticks() const { return ticks_; }
  /// Time-weighted means over the coupled interval so far.
  double mean_queue_pkts() const;
  double mean_share() const;
  /// Foreground arrival rate measured on the last tick, packets/s.
  double last_foreground_pps() const { return last_fg_pps_; }

  void export_to(stats::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  void tick();
  void detach();

  FluidBackgroundConfig cfg_;
  double capacity_pps_;
  SimTime couple_dt_;
  std::unique_ptr<fluid::FluidModel> model_;

  sim::Port* port_ = nullptr;
  queue::FifoBase* fifo_ = nullptr;
  sim::Simulator* sim_ = nullptr;

  // Gauges published to the packet path (FifoBase / Port hold pointers).
  double q_pkts_ = 0.0;
  double avail_frac_ = 1.0;

  SimTime epoch_ = 0.0;      ///< sim time at attach == fluid model t0
  SimTime last_tick_ = 0.0;
  std::uint64_t last_bytes_ = 0;
  double last_fg_pps_ = 0.0;
  bool stopped_ = false;

  std::uint64_t ticks_ = 0;
  double q_integral_ = 0.0;      ///< pkts * s
  double share_integral_ = 0.0;  ///< s
};

}  // namespace dtdctcp::hybrid
