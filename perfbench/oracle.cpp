// Fig 7 / Fig 8a oracle: replays the generators of bench/bench_fig7_overall
// and bench/bench_fig8_ablation through the benchmark's modeled-metric code
// and compares the results, at the precision those benches print, with the
// values they print.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/exhaustive.h"
#include "models/model_zoo.h"
#include "modeled.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

bool expect(std::vector<std::string>& report, const std::string& what,
            double value, int decimals, const std::string& printed) {
  const std::string got = fixed(value, decimals);
  const bool ok = got == printed;
  report.push_back(what + " " + got + (ok ? " == " : " != ") + printed);
  return ok;
}

}  // namespace

bool run_figure_oracle(std::vector<std::string>& report) {
  bool ok = true;

  // Fig 7: 100 combos of 4-7 zoo models per SoC, seed 20250704 per SoC; the
  // Kirin990 pass also draws the 30% scatter sample after each combo.
  struct Fig7 {
    h2p::Soc soc;
    bool scatter;
    const char* vs_mnn;
    const char* vs_band;
  };
  const Fig7 fig7[] = {
      {h2p::Soc::snapdragon778g(), false, "2.57", "1.066"},
      {h2p::Soc::snapdragon870(), false, "2.59", "1.060"},
      {h2p::Soc::kirin990(), true, "3.63", "1.162"},
  };
  for (const Fig7& f : fig7) {
    h2p::Rng rng(20250704);
    std::vector<WindowOutcome> outcomes;
    for (int combo = 0; combo < 100; ++combo) {
      const std::size_t count = 4 + rng.index(4);
      std::vector<const h2p::Model*> models;
      for (std::size_t i = 0; i < count; ++i) {
        models.push_back(&h2p::zoo_model(h2p::all_model_ids()[rng.index(10)]));
      }
      const h2p::StaticEvaluator eval(f.soc, models);
      WindowOutcome o;
      o.h2p_ms = h2p_makespan_ms(eval);
      model_baselines(eval, o);
      outcomes.push_back(o);
      if (f.scatter) (void)rng.chance(0.30);
    }
    const ModeledSummary m = summarize_outcomes(outcomes);
    ok &= expect(report, "fig7 " + f.soc.name() + " speedup_vs_mnn",
                 m.speedup_vs_mnn, 2, f.vs_mnn);
    ok &= expect(report, "fig7 " + f.soc.name() + " speedup_vs_band",
                 m.speedup_vs_band, 3, f.vs_band);
  }

  // Fig 8a: 100 combos of 4-5 zoo models on Kirin990, seed 8888.
  {
    const h2p::Soc soc = h2p::Soc::kirin990();
    h2p::Rng rng(8888);
    std::vector<WindowOutcome> outcomes;
    for (int combo = 0; combo < 100; ++combo) {
      const std::size_t count = 4 + rng.index(2);
      std::vector<const h2p::Model*> models;
      for (std::size_t i = 0; i < count; ++i) {
        models.push_back(
            &h2p::zoo_model(h2p::all_model_ids()[rng.index(h2p::kNumZooModels)]));
      }
      const h2p::StaticEvaluator eval(soc, models);
      WindowOutcome o;
      o.h2p_ms = h2p_makespan_ms(eval);
      model_baselines(eval, o);
      o.exhaustive_ms = h2p::exhaustive_search(eval).makespan_ms;
      outcomes.push_back(o);
    }
    const ModeledSummary m = summarize_outcomes(outcomes);
    ok &= expect(report, "fig8a gap_to_exhaustive_pct", m.gap_to_exhaustive_pct,
                 1, "0.8");
  }
  return ok;
}

}  // namespace perfbench
