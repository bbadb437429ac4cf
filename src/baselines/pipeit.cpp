#include "baselines/pipeit.h"

#include <algorithm>
#include <stdexcept>

#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"

namespace h2p {
namespace {

struct Procs {
  std::size_t big;
  std::size_t small;
};

Procs find_procs(const StaticEvaluator& eval) {
  const int big = eval.soc().find(ProcKind::kCpuBig);
  const int small = eval.soc().find(ProcKind::kCpuSmall);
  if (big < 0 || small < 0) {
    throw std::runtime_error("run_pipeit: Soc lacks big/small CPU clusters");
  }
  return {static_cast<std::size_t>(big), static_cast<std::size_t>(small)};
}

double split_objective(const StaticEvaluator& eval, std::size_t model_idx,
                       const Procs& procs, std::size_t b) {
  const Model& m = eval.model(model_idx);
  const std::size_t n = m.num_layers();
  const CostTable& t = eval.table(model_idx);
  const double big_ms = (b == 0) ? 0.0 : t.exec_ms(procs.big, 0, b - 1);
  double small_ms = 0.0;
  if (b < n) {
    small_ms = t.exec_ms(procs.small, b, n - 1);
    if (b > 0) small_ms += t.boundary_copy_ms(procs.small, b);
  }
  return std::max(big_ms, small_ms);
}

}  // namespace

std::size_t pipeit_split(const StaticEvaluator& eval, std::size_t model_idx) {
  const Procs procs = find_procs(eval);
  const std::size_t n = eval.model(model_idx).num_layers();
  if (n == 0) return 0;

  // Local search: start from a flops-proportional seed and hill-climb +/-1
  // until no neighbour improves (Pipe-it's published strategy).
  const double big_speed = eval.soc().processor(procs.big).peak_gflops;
  const double small_speed = eval.soc().processor(procs.small).peak_gflops;
  std::size_t b = static_cast<std::size_t>(
      static_cast<double>(n) * big_speed / (big_speed + small_speed));
  b = std::min(b, n);

  double current = split_objective(eval, model_idx, procs, b);
  for (;;) {
    double best = current;
    std::size_t best_b = b;
    if (b > 0) {
      const double v = split_objective(eval, model_idx, procs, b - 1);
      if (v < best) { best = v; best_b = b - 1; }
    }
    if (b < n) {
      const double v = split_objective(eval, model_idx, procs, b + 1);
      if (v < best) { best = v; best_b = b + 1; }
    }
    if (best_b == b) break;
    b = best_b;
    current = best;
  }
  return b;
}

Timeline run_pipeit(const StaticEvaluator& eval) {
  const Procs procs = find_procs(eval);
  exec::CompiledPlanBuilder builder(eval);

  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    const std::size_t n = eval.model(i).num_layers();
    const std::size_t slot = builder.add_slot(i);
    if (n == 0) continue;
    const std::size_t b = pipeit_split(eval, i);
    if (b > 0) builder.add_range(slot, procs.big, 0, b);
    if (b < n) builder.add_range(slot, procs.small, b, n);
  }
  return simulate(eval.soc(), builder.build());
}

}  // namespace h2p
