#include "baselines/mnn_serial.h"

#include <stdexcept>

#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"

namespace h2p {

Timeline run_mnn_serial(const StaticEvaluator& eval) {
  const int cpu_b = eval.soc().find(ProcKind::kCpuBig);
  if (cpu_b < 0) throw std::runtime_error("run_mnn_serial: Soc has no CPU big cluster");

  exec::CompiledPlanBuilder builder(eval);
  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    const std::size_t n = eval.model(i).num_layers();
    const std::size_t slot = builder.add_slot(i);
    if (n == 0) continue;
    builder.add_range(slot, static_cast<std::size_t>(cpu_b), 0, n);
  }
  // Single processor: no co-execution, contention model is a no-op.
  return simulate(eval.soc(), builder.build());
}

double mnn_serial_latency_ms(const StaticEvaluator& eval) {
  const int cpu_b = eval.soc().find(ProcKind::kCpuBig);
  if (cpu_b < 0) throw std::runtime_error("mnn_serial_latency_ms: no CPU big cluster");
  double total = 0.0;
  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    const Model& model = eval.model(i);
    if (model.num_layers() == 0) continue;
    total += eval.table(i).exec_ms(static_cast<std::size_t>(cpu_b), 0,
                                   model.num_layers() - 1);
  }
  return total;
}

}  // namespace h2p
