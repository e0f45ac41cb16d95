// Umbrella header: the public API of the DT-DCTCP reproduction library.
//
// Quick tour:
//   queue::MarkingRule       — the switch marking rule: DCTCP's K,
//                              DT-DCTCP's K1/K2, or a classic AQM
//   core::run_dumbbell       — N long-lived flows over one bottleneck
//   core::run_incast         — synchronized fan-in on the paper testbed
//   fluid::FluidModel        — the delay-differential fluid model
//   analysis::analyze        — describing-function stability analysis
//   analysis::run_stability_atlas — DF/bifurcation maps over the
//                              AQM x CC x RTT x rate x buffer grid
#pragma once

#include "analysis/describing_function.h"
#include "analysis/margins.h"
#include "analysis/nyquist.h"
#include "analysis/stability_atlas.h"
#include "analysis/transfer_function.h"
#include "core/dumbbell.h"
#include "core/incast_experiment.h"
#include "core/oscillation_probe.h"
#include "core/testbed.h"
#include "fluid/fluid_model.h"
#include "fluid/marking.h"
#include "queue/drop_tail.h"
#include "queue/ecn_hysteresis.h"
#include "queue/ecn_threshold.h"
#include "queue/factory.h"
#include "queue/red.h"
#include "sim/leaf_spine.h"
#include "sim/network.h"
#include "stats/fairness.h"
#include "stats/oscillation.h"
#include "tcp/connection.h"
#include "workload/flow_sampler.h"
#include "workload/incast.h"
#include "workload/long_lived.h"
#include "workload/poisson_flows.h"
