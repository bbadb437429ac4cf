#include "modeled.h"

#include <algorithm>
#include <cmath>

#include "baselines/band.h"
#include "baselines/mnn_serial.h"
#include "sim/pipeline_sim.h"
#include "soc/thermal.h"
#include "util/stats.h"

namespace perfbench {

h2p::Timeline simulate_compiled(const h2p::exec::CompiledPlan& compiled,
                                const h2p::Soc& soc) {
  const std::vector<h2p::SimTask> tasks = h2p::tasks_from_compiled(compiled);
  return h2p::simulate(soc, tasks);
}

double h2p_makespan_ms(const h2p::StaticEvaluator& eval,
                       const h2p::PlannerOptions& opts) {
  const h2p::PlannerReport report = h2p::Hetero2PipePlanner(eval, opts).plan();
  return simulate_compiled(h2p::exec::compile(report.plan, eval), eval.soc())
      .makespan_ms();
}

void model_baselines(const h2p::StaticEvaluator& eval, WindowOutcome& out) {
  out.mnn_ms = h2p::run_mnn_serial(eval).makespan_ms();
  out.band_ms = h2p::run_band(eval).makespan_ms();
  out.noct_ms = h2p_makespan_ms(eval, h2p::PlannerOptions::no_ct());
}

ModeledSummary summarize_outcomes(const std::vector<WindowOutcome>& outcomes) {
  std::vector<double> mnn, band, noct;
  double gap_sum = 0.0;
  ModeledSummary s;
  for (const WindowOutcome& o : outcomes) {
    mnn.push_back(o.mnn_ms / o.h2p_ms);
    band.push_back(o.band_ms / o.h2p_ms);
    noct.push_back(o.noct_ms / o.h2p_ms);
    if (o.exhaustive_ms > 0.0) {
      gap_sum += o.h2p_ms / std::max(o.exhaustive_ms, 1e-9) - 1.0;
      ++s.gap_windows;
    }
  }
  s.speedup_vs_mnn = h2p::geomean(mnn);
  s.speedup_vs_band = h2p::geomean(band);
  s.speedup_vs_noct = h2p::geomean(noct);
  if (s.gap_windows > 0) {
    s.gap_to_exhaustive_pct =
        100.0 * gap_sum / static_cast<double>(s.gap_windows);
  }
  return s;
}

h2p::Soc serving_view(const h2p::Soc& soc, std::uint64_t mask,
                      std::size_t bucket, int bus_centi) {
  const h2p::Soc base =
      bucket == 0 ? soc : h2p::thermally_derated_bucket(soc, bucket);
  std::vector<h2p::Processor> procs;
  for (std::size_t p = 0; p < base.num_processors(); ++p) {
    if ((mask >> p) & 1ull) procs.push_back(base.processor(p));
  }
  return h2p::Soc(base.name(), std::move(procs),
                  base.bus_bw_gbps() * (static_cast<double>(bus_centi) / 100.0),
                  base.mem_capacity_bytes(), base.available_bytes(),
                  base.mem_states());
}

}  // namespace perfbench
