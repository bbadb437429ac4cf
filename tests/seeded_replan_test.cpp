// Seeded replans (plan_warm, plan_degraded) pinned bit for bit: every plan
// they produce on a fixed set of seeded windows is hashed into one digest.
// Any change to the seed decode, slot matching, relabel, placement,
// audition, settle or report steps that moves a single slice boundary,
// label, stolen-layer count or makespan bit changes the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "util/rng.h"

namespace h2p {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

struct Digest {
  Fnv1a fnv;
  std::uint64_t nullopts = 0;
  std::uint64_t plans = 0;

  void add(const std::optional<PlannerReport>& r) {
    if (!r) {
      ++nullopts;
      return;
    }
    ++plans;
    for (const ModelPlan& mp : r->plan.models) {
      fnv.add(mp.model_index);
      for (const Slice& s : mp.slices) {
        fnv.add(s.begin);
        fnv.add(s.end);
      }
      fnv.add(mp.high_contention ? 1u : 0u);
    }
    fnv.add(static_cast<std::uint64_t>(r->layers_stolen));
    fnv.add(r->memory_ok ? 1u : 0u);
    fnv.add(std::bit_cast<std::uint64_t>(r->static_makespan_ms));
  }

  std::uint64_t value() const {
    Fnv1a out = fnv;
    out.add(nullopts);
    return out.h;
  }
};

ModelId random_model(Rng& rng) {
  return all_model_ids()[rng.index(all_model_ids().size())];
}

std::vector<const Model*> models_of(const std::vector<ModelId>& ids) {
  std::vector<const Model*> models;
  for (const ModelId id : ids) models.push_back(&zoo_model(id));
  return models;
}

/// The SoC with processor `drop` removed (none when drop >= P) and the bus
/// scaled by `bus_scale`, plus the kept-stage map plan_degraded takes.
std::pair<Soc, std::vector<std::size_t>> view_of(const Soc& soc,
                                                 std::size_t drop,
                                                 double bus_scale) {
  std::vector<Processor> procs;
  std::vector<std::size_t> kept;
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    if (p == drop) continue;
    procs.push_back(soc.processor(p));
    kept.push_back(p);
  }
  return {Soc(soc.name(), std::move(procs), soc.bus_bw_gbps() * bus_scale,
              soc.mem_capacity_bytes(), soc.available_bytes(), soc.mem_states()),
          std::move(kept)};
}

std::optional<PlannerReport> warm(const Soc& soc, const exec::CompiledPlan& seed,
                                  const std::vector<ModelId>& ids,
                                  const PlannerOptions& opts) {
  const StaticEvaluator eval(soc, models_of(ids));
  return Hetero2PipePlanner(eval, opts).plan_warm(seed);
}

TEST(SeededReplan, PlansMatchPinnedDigest) {
  PlannerOptions unpolished;
  unpolished.work_stealing = false;
  unpolished.tail_optimization = false;
  const std::vector<PlannerOptions> knobs = {PlannerOptions{},
                                             PlannerOptions::no_ct(), unpolished};
  Rng rng(35);
  Digest digest;
  std::size_t appended = 0;  // additions placed last
  std::size_t inserted = 0;  // additions the Def.-4 rule moved inside
  for (const Soc& soc :
       {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    for (const PlannerOptions& opts : knobs) {
      for (int window = 0; window < 2; ++window) {
        const std::size_t m = static_cast<std::size_t>(rng.uniform_int(4, 7));
        std::vector<ModelId> ids;
        for (std::size_t i = 0; i < m; ++i) ids.push_back(random_model(rng));

        const StaticEvaluator seed_eval(soc, models_of(ids));
        const exec::CompiledPlan seed = exec::compile(
            Hetero2PipePlanner(seed_eval, opts).plan().plan, seed_eval);

        // Substitutions at every position of the window.
        for (std::size_t i = 0; i < m; ++i) {
          std::vector<ModelId> sub = ids;
          while (sub[i] == ids[i]) sub[i] = random_model(rng);
          digest.add(warm(soc, seed, sub, opts));
        }
        // Two substitutions are not a near miss.
        {
          std::vector<ModelId> far = ids;
          for (std::size_t i = 0; i < 2; ++i) {
            while (far[i] == ids[0] || far[i] == ids[1]) far[i] = random_model(rng);
          }
          digest.add(warm(soc, seed, far, opts));
        }
        // Additions of every zoo model: appended, or moved inside by Def. 4.
        for (const ModelId extra : all_model_ids()) {
          std::vector<ModelId> add = ids;
          add.push_back(extra);
          const std::optional<PlannerReport> r = warm(soc, seed, add, opts);
          digest.add(r);
          if (r) {
            (r->mitigation.order.back() == m ? appended : inserted) += 1;
          }
        }
        // Removals of every position.
        for (std::size_t i = 0; i < m; ++i) {
          std::vector<ModelId> rem = ids;
          rem.erase(rem.begin() + static_cast<std::ptrdiff_t>(i));
          digest.add(warm(soc, seed, rem, opts));
        }
        // Degraded: drop each processor in turn, then the identity
        // projection on a bus-scaled view.
        for (std::size_t drop = 0; drop <= soc.num_processors(); ++drop) {
          const auto [view, kept] =
              view_of(soc, drop, drop == soc.num_processors() ? 0.6 : 1.0);
          const StaticEvaluator eval(view, models_of(ids));
          digest.add(Hetero2PipePlanner(eval, opts).plan_degraded(seed, kept));
        }
      }
    }
  }
  EXPECT_GT(appended, 0u);
  EXPECT_GT(inserted, 0u);
  EXPECT_EQ(digest.nullopts, 18u);  // the two-substitution windows
  EXPECT_EQ(digest.value(), 0x4b6a1d5b94407d23ull)
      << "plans: " << digest.plans << ", nullopt: " << digest.nullopts
      << ", digest: 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace h2p
