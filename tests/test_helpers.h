#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <vector>

#include "core/bubbles.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "sim/pipeline_sim.h"
#include "soc/soc.h"

namespace h2p {

// gtest prints a parameter type it has no printer for as its raw bytes,
// pointers included, so the ctest names of suites parameterised on these
// types would change with every build. Print them by name instead.
inline void PrintTo(const Soc& soc, std::ostream* os) { *os << soc.name(); }
inline void PrintTo(const Layer& layer, std::ostream* os) { *os << layer.name; }
inline void PrintTo(ModelId id, std::ostream* os) { *os << to_string(id); }

}  // namespace h2p

namespace h2p::testing_util {

/// Owns a Soc + model pointers + evaluator for a zoo subset, so tests can
/// spin up planning contexts in one line.
struct Fixture {
  Soc soc;
  std::vector<const Model*> models;
  std::unique_ptr<StaticEvaluator> eval;

  explicit Fixture(std::vector<ModelId> ids, Soc s = Soc::kirin990())
      : soc(std::move(s)) {
    for (ModelId id : ids) models.push_back(&zoo_model(id));
    eval = std::make_unique<StaticEvaluator>(soc, models);
  }
};

/// A hand-built task with implicit (same-model chain) dependencies and no
/// fallback rows.
inline SimTask sim_task(std::size_t model_idx, std::size_t seq_in_model,
                        std::size_t proc_idx, double solo_ms,
                        double sensitivity, double intensity,
                        double arrival_ms) {
  SimTask t;
  t.model_idx = model_idx;
  t.seq_in_model = seq_in_model;
  t.proc_idx = proc_idx;
  t.solo_ms = solo_ms;
  t.sensitivity = sensitivity;
  t.intensity = intensity;
  t.arrival_ms = arrival_ms;
  return t;
}

/// `tasks` with every aggressor intensity zeroed, fallback rows included:
/// Eq. 2's extra term is then an exact 0, so the DES runs them as on an
/// ideal shared bus.
inline std::vector<SimTask> without_intensity(std::vector<SimTask> tasks) {
  for (SimTask& t : tasks) {
    t.intensity = 0.0;
    for (SimTask::AltCost& a : t.alt) a.intensity = 0.0;
  }
  return tasks;
}

/// The compiled-plan counterpart of without_intensity(SimTask list).
inline exec::CompiledPlan without_intensity(exec::CompiledPlan compiled) {
  for (exec::ScheduledSlice& s : compiled.slices) s.intensity = 0.0;
  for (exec::CompiledPlan::FallbackCost& f : compiled.fallback) f.intensity = 0.0;
  return compiled;
}

inline std::vector<ModelId> mixed_four() {
  return {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
          ModelId::kMobileNetV2};
}

inline std::vector<ModelId> mixed_six() {
  return {ModelId::kYOLOv4,   ModelId::kBERT,     ModelId::kSqueezeNet,
          ModelId::kResNet50, ModelId::kAlexNet,  ModelId::kMobileNetV2};
}

}  // namespace h2p::testing_util
