#include "exec/compiled_plan.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/work_stealing.h"

namespace h2p::exec {

const ScheduledSlice* CompiledPlan::find(std::size_t model_idx,
                                         std::size_t seq_in_model) const {
  for (const ScheduledSlice& s : slices) {
    if (s.model_idx == model_idx && s.seq_in_model == seq_in_model) return &s;
  }
  return nullptr;
}

double CompiledPlan::total_solo_ms() const {
  double total = 0.0;
  for (const ScheduledSlice& s : slices) total += s.solo_ms();
  return total;
}

bool CompiledPlan::chain_precedence() const {
  // prev[slot] = global index of the slot's last-seen slice.
  std::vector<std::size_t> prev(num_models, static_cast<std::size_t>(-1));
  std::vector<std::size_t> count(num_models, 0);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const ScheduledSlice& s = slices[i];
    if (s.model_idx >= num_models) return false;
    if (s.seq_in_model != count[s.model_idx]) return false;
    if (s.seq_in_model == 0) {
      if (!s.deps.empty()) return false;
    } else if (s.deps.size() != 1 || s.deps[0] != prev[s.model_idx]) {
      return false;
    }
    prev[s.model_idx] = i;
    ++count[s.model_idx];
  }
  return true;
}

ScheduledSlice lower_range(const StaticEvaluator& eval, std::size_t table_idx,
                           std::size_t slot, std::size_t seq,
                           std::size_t proc_idx, std::size_t begin,
                           std::size_t end) {
  if (end <= begin) {
    throw std::invalid_argument("lower_range: empty layer range");
  }
  if (table_idx >= eval.num_models()) {
    throw std::invalid_argument(
        "lower_range: model index out of range for this evaluator (plan and "
        "model list disagree?)");
  }
  if (proc_idx >= eval.soc().num_processors()) {
    throw std::invalid_argument("lower_range: processor index out of range");
  }
  if (end > eval.model(table_idx).num_layers()) {
    throw std::invalid_argument("lower_range: layer range exceeds model");
  }
  const CostTable& t = eval.table(table_idx);
  // One slice_cost walk for the four per-slice fields; each is
  // bit-identical to its standalone accessor.
  const CostTable::SliceSimCosts c = t.slice_sim_costs(proc_idx, begin, end - 1);
  ScheduledSlice s;
  s.model_idx = slot;
  s.seq_in_model = seq;
  s.proc_idx = proc_idx;
  s.layers = Slice{begin, end};
  s.exec_ms = c.exec_ms;
  s.boundary_copy_ms = begin > 0 ? t.boundary_copy_ms(proc_idx, begin) : 0.0;
  s.sensitivity = c.sensitivity;
  s.intensity = c.intensity;
  s.dram_bytes = c.dram_bytes;
  return s;
}

void attach_fallback_costs(CompiledPlan& plan, const StaticEvaluator& eval) {
  const std::size_t P = eval.soc().num_processors();
  plan.fallback_procs = P;
  plan.fallback.assign(plan.slices.size() * P, CompiledPlan::FallbackCost{});
  for (std::size_t i = 0; i < plan.slices.size(); ++i) {
    const ScheduledSlice& s = plan.slices[i];
    for (std::size_t q = 0; q < P; ++q) {
      CompiledPlan::FallbackCost& fc = plan.fallback[i * P + q];
      if (q == s.proc_idx) {
        fc = {s.solo_ms(), s.sensitivity, s.intensity};
        continue;
      }
      const ScheduledSlice alt =
          lower_range(eval, plan.original_index[s.model_idx], s.model_idx,
                      s.seq_in_model, q, s.layers.begin, s.layers.end);
      fc = {alt.solo_ms(), alt.sensitivity, alt.intensity};
    }
  }
}

PipelinePlan to_pipeline_plan(const CompiledPlan& compiled) {
  PipelinePlan plan;
  plan.num_stages = compiled.num_stages;
  plan.models.resize(compiled.num_models);
  for (std::size_t slot = 0; slot < compiled.num_models; ++slot) {
    plan.models[slot].model_index = compiled.original_index[slot];
    plan.models[slot].slices.assign(compiled.num_stages, Slice{0, 0});
  }
  for (const ScheduledSlice& s : compiled.slices) {
    if (s.model_idx >= plan.models.size() || s.proc_idx >= compiled.num_stages) {
      throw std::invalid_argument("to_pipeline_plan: slice outside the grid");
    }
    Slice& cell = plan.models[s.model_idx].slices[s.proc_idx];
    if (!cell.empty()) {
      throw std::invalid_argument(
          "to_pipeline_plan: two slices on one (slot, processor) cell — not a "
          "pipeline-grid plan");
    }
    cell = s.layers;
  }
  // Canonicalize empty slices the way the planner's own passes do, so a
  // reconstructed plan compares bit-identical to the one that was compiled.
  for (ModelPlan& mp : plan.models) {
    std::size_t num_layers = 0;
    for (const Slice& sl : mp.slices) num_layers = std::max(num_layers, sl.end);
    boundaries_to_slices(mp, slices_to_boundaries(mp, num_layers));
  }
  return plan;
}

CompiledPlanBuilder::CompiledPlanBuilder(const StaticEvaluator& eval)
    : eval_(&eval) {
  plan_.num_stages = eval.soc().num_processors();
}

std::size_t CompiledPlanBuilder::add_slot(std::size_t original_index) {
  const std::size_t slot = plan_.num_models++;
  plan_.original_index.push_back(original_index);
  plan_.model_names.push_back(eval_->model(original_index).name());
  plan_.resident_bytes.push_back(0.0);
  slot_proc_ranges_.emplace_back(eval_->soc().num_processors());
  slot_last_.push_back(static_cast<std::size_t>(-1));
  return slot;
}

ScheduledSlice& CompiledPlanBuilder::add_range(std::size_t slot,
                                               std::size_t proc_idx,
                                               std::size_t begin,
                                               std::size_t end) {
  const std::size_t prev = slot_last_.at(slot);
  const bool first = prev == static_cast<std::size_t>(-1);
  const std::size_t seq = first ? 0 : plan_.slices[prev].seq_in_model + 1;
  plan_.slices.push_back(lower_range(*eval_, plan_.original_index[slot], slot,
                                     seq, proc_idx, begin, end));
  if (!first) plan_.slices.back().deps.push_back(prev);
  slot_last_[slot] = plan_.slices.size() - 1;
  Slice& occupied = slot_proc_ranges_.at(slot).at(proc_idx);
  if (occupied.empty()) {
    occupied = Slice{begin, end};
  } else {
    occupied.begin = std::min(occupied.begin, begin);
    occupied.end = std::max(occupied.end, end);
  }
  return plan_.slices.back();
}

CompiledPlan CompiledPlanBuilder::build() {
  for (std::size_t slot = 0; slot < plan_.num_models; ++slot) {
    ModelPlan mp;
    mp.model_index = plan_.original_index[slot];
    mp.slices = slot_proc_ranges_[slot];
    plan_.resident_bytes[slot] = eval_->resident_bytes(mp);
  }
  return std::move(plan_);
}

CompiledPlan compile(const PipelinePlan& plan, const StaticEvaluator& eval) {
  CompiledPlan cp;
  cp.num_stages = plan.num_stages;
  cp.num_models = plan.models.size();
  cp.original_index.reserve(cp.num_models);
  cp.model_names.reserve(cp.num_models);
  cp.resident_bytes.reserve(cp.num_models);
  std::size_t num_slices = 0;
  for (const ModelPlan& mp : plan.models) {
    for (const Slice& sl : mp.slices) num_slices += sl.empty() ? 0 : 1;
  }
  cp.slices.reserve(num_slices);

  for (std::size_t slot = 0; slot < plan.models.size(); ++slot) {
    const ModelPlan& mp = plan.models[slot];
    if (mp.model_index >= eval.num_models()) {
      throw std::invalid_argument(
          "compile: plan references model index beyond the evaluator's model "
          "list (plan and model list disagree?)");
    }
    const std::size_t num_layers = eval.model(mp.model_index).num_layers();
    if (!mp.covers(num_layers)) {
      throw std::invalid_argument(
          "compile: slot " + std::to_string(slot) +
          "'s slices overlap, run backwards or leave a gap (they must tile "
          "[0, " + std::to_string(num_layers) + ") in processor order)");
    }
    cp.original_index.push_back(mp.model_index);
    cp.model_names.push_back(eval.model(mp.model_index).name());
    cp.resident_bytes.push_back(eval.resident_bytes(mp));
    std::size_t seq = 0;
    std::size_t prev = static_cast<std::size_t>(-1);
    for (std::size_t k = 0; k < mp.slices.size(); ++k) {
      const Slice& sl = mp.slices[k];
      if (sl.empty()) continue;
      cp.slices.push_back(
          lower_range(eval, mp.model_index, slot, seq++, k, sl.begin, sl.end));
      if (prev != static_cast<std::size_t>(-1)) {
        cp.slices.back().deps.push_back(prev);
      }
      prev = cp.slices.size() - 1;
    }
  }
  return cp;
}

}  // namespace h2p::exec
