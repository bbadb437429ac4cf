#include "baselines/band.h"

#include <algorithm>
#include <limits>

#include "exec/compiled_plan.h"

namespace h2p {
namespace {

struct Candidate {
  double finish_ms = std::numeric_limits<double>::infinity();
  BandDispatch dispatch;
  double primary_ms = 0.0;
  double fallback_ms = 0.0;
};

}  // namespace

std::vector<BandDispatch> band_dispatch(const StaticEvaluator& eval) {
  const Soc& soc = eval.soc();
  const std::size_t P = soc.num_processors();
  std::vector<double> free_at(P, 0.0);
  std::vector<BandDispatch> dispatches;

  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    const Model& model = eval.model(i);
    const std::size_t n = model.num_layers();
    if (n == 0) continue;
    const CostTable& table = eval.table(i);

    Candidate best;
    for (std::size_t p = 0; p < P; ++p) {
      Candidate c;
      c.dispatch.model_idx = i;
      c.dispatch.proc_idx = p;
      const bool is_npu = soc.processor(p).kind == ProcKind::kNpu;
      const std::size_t u = is_npu ? model.first_npu_unsupported(0, n - 1) : n;

      if (!is_npu || u >= n) {
        c.primary_ms = table.exec_ms(p, 0, n - 1);
        c.finish_ms = free_at[p] + c.primary_ms;
      } else {
        // Split at the first unsupported operator; the remainder falls back
        // to whichever of CPU big / GPU finishes it earliest.
        c.dispatch.npu_fallback = true;
        c.dispatch.fallback_layer = u;
        c.primary_ms = (u > 0) ? table.exec_ms(p, 0, u - 1) : 0.0;
        const double npu_done = free_at[p] + c.primary_ms;

        double fb_finish = std::numeric_limits<double>::infinity();
        for (ProcKind kind : {ProcKind::kCpuBig, ProcKind::kGpu}) {
          const int fb = soc.find(kind);
          if (fb < 0) continue;
          const auto fbp = static_cast<std::size_t>(fb);
          const double ms = table.exec_ms(fbp, u, n - 1) +
                            table.boundary_copy_ms(fbp, u);
          const double finish = std::max(free_at[fbp], npu_done) + ms;
          if (finish < fb_finish) {
            fb_finish = finish;
            c.dispatch.fallback_proc = fbp;
            c.fallback_ms = ms;
          }
        }
        c.finish_ms = fb_finish;
      }
      if (c.finish_ms < best.finish_ms) best = c;
    }

    // Commit the greedy choice and advance availability estimates.
    const BandDispatch& d = best.dispatch;
    if (d.npu_fallback) {
      const double npu_done = free_at[d.proc_idx] + best.primary_ms;
      free_at[d.proc_idx] = npu_done;
      free_at[d.fallback_proc] =
          std::max(free_at[d.fallback_proc], npu_done) + best.fallback_ms;
    } else {
      free_at[d.proc_idx] += best.primary_ms;
    }
    dispatches.push_back(d);
  }
  return dispatches;
}

Timeline run_band(const StaticEvaluator& eval) {
  const std::vector<BandDispatch> dispatches = band_dispatch(eval);
  exec::CompiledPlanBuilder builder(eval);
  // Dispatch decisions skip 0-layer models, so slots must be registered for
  // every model index up to the one being lowered to keep slot == model_idx.
  auto slot_for = [&builder, next = std::size_t{0}](std::size_t model_idx) mutable {
    while (next <= model_idx) builder.add_slot(next++);
    return model_idx;
  };

  for (const BandDispatch& d : dispatches) {
    const std::size_t n = eval.model(d.model_idx).num_layers();
    const std::size_t slot = slot_for(d.model_idx);

    if (!d.npu_fallback) {
      builder.add_range(slot, d.proc_idx, 0, n);
      continue;
    }
    if (d.fallback_layer > 0) {
      builder.add_range(slot, d.proc_idx, 0, d.fallback_layer);
    }
    builder.add_range(slot, d.fallback_proc, d.fallback_layer, n);
  }
  return simulate(eval.soc(), builder.build());
}

}  // namespace h2p
