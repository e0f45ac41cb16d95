// Plain configuration of the switch queue disciplines (ecn_threshold.h,
// ecn_hysteresis.h, red.h, pie.h, codel.h), free of the simulator so
// queue::MarkingRule — and through it the fluid model and the DF
// analysis — can carry it without linking the packet layers.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace dtdctcp::queue {

/// What a threshold counts (queue/fifo_base.h).
enum class ThresholdUnit { kPackets, kBytes };
/// When a threshold queue compares with K (queue/ecn_threshold.h).
enum class MarkPoint { kArrival, kDequeue };
/// Packet-level readings of DT-DCTCP (queue/ecn_hysteresis.h).
enum class HysteresisVariant { kTrendPeak, kDrainToStart, kHalfBand };

struct RedConfig {
  double min_th = 5.0;          ///< packets
  double max_th = 15.0;         ///< packets
  double max_p = 0.1;           ///< marking probability at max_th
  double weight = 0.002;        ///< EWMA gain w_q
  bool ecn_mode = true;         ///< mark instead of drop when possible
  bool gentle = true;           ///< ramp to 1.0 between max_th and 2*max_th
  std::uint64_t seed = 1;

  bool operator==(const RedConfig&) const = default;
};

struct PieConfig {
  SimTime target_delay = 50e-6;
  SimTime update_interval = 100e-6;
  double alpha = 0.125;  ///< 1/s of delay error
  double beta = 1.25;    ///< 1/s of delay trend
  std::uint64_t seed = 3;

  bool operator==(const PieConfig&) const = default;
};

struct CodelConfig {
  SimTime target = 50e-6;     ///< acceptable standing sojourn time
  SimTime interval = 500e-6;  ///< sliding window to detect persistence

  bool operator==(const CodelConfig&) const = default;
};

}  // namespace dtdctcp::queue
