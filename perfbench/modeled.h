#pragma once

// Modeled (device-side) outcomes of one window: the Hetero2Pipe plan's DES
// makespan against the paper's baselines.  The cold-windows and online
// workloads and the Fig 7 / Fig 8a oracle check all go through these
// functions, so the oracle vouches for the code that produces the metrics.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bubbles.h"
#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "sim/trace.h"
#include "soc/soc.h"

namespace perfbench {

/// DES timeline of a compiled plan (arrivals at 0), via the same lowering
/// `simulate_plan` uses.
h2p::Timeline simulate_compiled(const h2p::exec::CompiledPlan& compiled,
                                const h2p::Soc& soc);

/// Plan -> compile -> DES makespan: the H2P latency of Fig 7 / Fig 8.
double h2p_makespan_ms(const h2p::StaticEvaluator& eval,
                       const h2p::PlannerOptions& opts = {});

/// DES makespans of one window under H2P and the baselines; `exhaustive_ms`
/// (exhaustive_search) is 0 when it was not computed.
struct WindowOutcome {
  double h2p_ms = 0.0;
  double mnn_ms = 0.0;
  double band_ms = 0.0;
  double noct_ms = 0.0;
  double exhaustive_ms = 0.0;
};

/// Fill the MNN, Band and No-C/T makespans of `out`.
void model_baselines(const h2p::StaticEvaluator& eval, WindowOutcome& out);

struct ModeledSummary {
  double speedup_vs_mnn = 0.0;   // geomean of mnn / h2p
  double speedup_vs_band = 0.0;  // geomean of band / h2p
  double speedup_vs_noct = 0.0;  // geomean of noct / h2p
  /// 100 * mean(h2p / exhaustive - 1): Fig 8a's "% from optimal".
  double gap_to_exhaustive_pct = 0.0;
  std::size_t gap_windows = 0;
};

ModeledSummary summarize_outcomes(const std::vector<WindowOutcome>& outcomes);

/// The SoC view the serving loop plans a window against: the thermal
/// bucket's derated SoC restricted to the processors in `mask`, with the
/// shared bus scaled to `bus_centi` percent (mirrors sim/online.cpp).
h2p::Soc serving_view(const h2p::Soc& soc, std::uint64_t mask,
                      std::size_t bucket, int bus_centi);

}  // namespace perfbench
