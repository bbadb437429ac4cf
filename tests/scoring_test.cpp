// Candidate-scoring oracles: the O(m) memory check against the per-column
// formula it replaced, the memoized plan lowering behind
// simulate_plan_makespan against the frozen reference simulator, and the
// tail sweep's O(K) collapse bound against the lane-wise computation it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/bubbles.h"
#include "core/work_stealing.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "sim/pipeline_sim.h"
#include "sim/pipeline_sim_reference.h"
#include "sim/task_table.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/simd.h"

namespace h2p {
namespace {

using testing_util::Fixture;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---- memory check ------------------------------------------------------------

/// The per-column formula satisfies_memory used before it cached each
/// slot's resident bytes: every column re-derives its members' bytes and
/// sums them in k-ascending order.  `max_column` receives the largest sum.
bool memory_oracle(const StaticEvaluator& eval, const PipelinePlan& plan,
                   double* max_column = nullptr) {
  const std::size_t m = plan.models.size();
  const std::size_t K = plan.num_stages;
  bool ok = true;
  double worst = 0.0;
  if (m == 0) return true;
  for (std::size_t j = 0; j + 1 <= m + K - 1; ++j) {
    double resident = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      if (j < k) continue;
      const std::size_t i = j - k;
      if (i >= m) continue;
      resident += eval.resident_bytes(plan.models[i]);
    }
    worst = std::max(worst, resident);
    if (resident > eval.soc().available_bytes()) ok = false;
  }
  if (max_column != nullptr) *max_column = worst;
  return ok;
}

/// m slots of random models, each cut at K - 1 random (sorted, possibly
/// repeated) boundaries, so empty and collapsed slices both occur.
PipelinePlan random_plan(Rng& rng, const StaticEvaluator& eval, std::size_t m) {
  PipelinePlan plan;
  plan.num_stages = eval.soc().num_processors();
  const std::size_t K = plan.num_stages;
  for (std::size_t slot = 0; slot < m; ++slot) {
    ModelPlan mp;
    mp.model_index = rng.index(eval.num_models());
    mp.slices.resize(K);
    const std::size_t n = eval.model(mp.model_index).num_layers();
    std::vector<std::size_t> b(K + 1, 0);
    b[K] = n;
    for (std::size_t k = 1; k < K; ++k) b[k] = rng.index(n + 1);
    std::sort(b.begin() + 1, b.end() - 1);
    boundaries_to_slices(mp, b);
    plan.models.push_back(std::move(mp));
  }
  return plan;
}

Soc with_available_bytes(const Soc& base, double bytes) {
  return Soc(base.name(), base.processors(), base.bus_bw_gbps(),
             base.mem_capacity_bytes(), bytes, base.mem_states());
}

TEST(MemoryCheck, MatchesPerColumnFormulaOnRandomPlans) {
  const std::vector<ModelId> ids = extended_model_ids();
  std::size_t violated = 0;
  for (const Soc& soc : {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    // Scaled-down free memory so both outcomes occur.
    const Soc tight = with_available_bytes(soc, soc.available_bytes() / 4.0);
    for (const Soc* s : {&soc, &tight}) {
      Fixture fx(ids, *s);
      Rng rng(7100);
      for (int trial = 0; trial < 200; ++trial) {
        const PipelinePlan plan = random_plan(rng, *fx.eval, rng.index(13));
        const bool expected = memory_oracle(*fx.eval, plan);
        ASSERT_EQ(fx.eval->satisfies_memory(plan), expected) << "trial " << trial;
        violated += expected ? 0 : 1;
      }
    }
  }
  EXPECT_GT(violated, 0u);
}

TEST(MemoryCheck, ColumnSumExactlyAtAvailableBytesFits) {
  // The column sums must be bit-equal to the per-column ones: a device
  // whose free memory equals a plan's largest column sum exactly still
  // fits it, and one ulp less does not.  Random plans of up to 12 models
  // make sums of up to K terms, where any other addition order rounds
  // differently often enough to show.
  Fixture probe(extended_model_ids());
  Rng rng(7200);
  for (int trial = 0; trial < 300; ++trial) {
    const PipelinePlan plan = random_plan(rng, *probe.eval, 1 + rng.index(12));
    double peak = 0.0;
    memory_oracle(*probe.eval, plan, &peak);
    ASSERT_GT(peak, 0.0);
    const Soc exact_soc = with_available_bytes(probe.soc, peak);
    const Soc below_soc = with_available_bytes(probe.soc, std::nextafter(peak, 0.0));
    const StaticEvaluator exact(exact_soc, probe.models);
    const StaticEvaluator below(below_soc, probe.models);
    ASSERT_TRUE(memory_oracle(exact, plan));
    ASSERT_FALSE(memory_oracle(below, plan));
    ASSERT_TRUE(exact.satisfies_memory(plan)) << "trial " << trial;
    ASSERT_FALSE(below.satisfies_memory(plan)) << "trial " << trial;
  }
}

TEST(MemoryCheck, InterleavedEvaluatorsReEmplacedAtOneAddress) {
  // Same plan, same slot keys; evaluator `a` is rebuilt at one address
  // with models whose resident bytes differ, between calls on `b`.  The
  // per-slot memo must key on the generation: an address-keyed memo would
  // hand `a` the previous models' bytes.
  const Soc kirin = Soc::kirin990();
  const Model big_resnet = make_batched_model(zoo_model(ModelId::kResNet50), 4);
  const Model big_bert = make_batched_model(zoo_model(ModelId::kBERT), 4);
  const Model big_squeeze = make_batched_model(zoo_model(ModelId::kSqueezeNet), 4);
  const std::vector<const Model*> plain = {&zoo_model(ModelId::kResNet50),
                                           &zoo_model(ModelId::kBERT),
                                           &zoo_model(ModelId::kSqueezeNet)};
  const std::vector<const Model*> batched = {&big_resnet, &big_bert, &big_squeeze};
  const std::size_t K = kirin.num_processors();
  const PipelinePlan plan = horizontal_plan(StaticEvaluator(kirin, plain), K);
  double peak_plain = 0.0;
  double peak_batched = 0.0;
  memory_oracle(StaticEvaluator(kirin, plain), plan, &peak_plain);
  memory_oracle(StaticEvaluator(kirin, batched), plan, &peak_batched);
  ASSERT_LT(peak_plain, peak_batched);
  // Free memory between the two peaks: the plain models fit, the batched
  // ones do not.
  const Soc mid = with_available_bytes(kirin, 0.5 * (peak_plain + peak_batched));

  std::optional<StaticEvaluator> a;
  a.emplace(mid, plain);
  const StaticEvaluator* address = &*a;
  const StaticEvaluator b(mid, batched);
  Rng rng(7400);
  PipelinePlan edited = plan;
  for (int round = 0; round < 12; ++round) {
    const bool a_plain = round % 2 == 0;
    if (round > 0) {
      a.emplace(mid, a_plain ? plain : batched);
      ASSERT_EQ(&*a, address);
    }
    EXPECT_EQ(a->satisfies_memory(plan), a_plain) << "round " << round;
    EXPECT_FALSE(b.satisfies_memory(plan)) << "round " << round;
    // One-slot edit per round: the tail sweep's candidate shape.
    const std::size_t slot = rng.index(edited.models.size());
    const std::size_t n = a->model(edited.models[slot].model_index).num_layers();
    edited.models[slot].slices.assign(K, Slice{0, 0});
    edited.models[slot].slices[rng.index(K)] = Slice{0, n};
    const StaticEvaluator* interleaved[] = {&*a, &b, &*a};
    for (const StaticEvaluator* e : interleaved) {
      EXPECT_EQ(e->satisfies_memory(edited), memory_oracle(*e, edited))
          << "round " << round;
    }
  }
}

// ---- memoized plan lowering ---------------------------------------------------

double reference_makespan(const PipelinePlan& plan, const StaticEvaluator& eval) {
  return sim::simulate_reference(eval.soc(),
                                 tasks_from_compiled(exec::compile(plan, eval)),
                                 {})
      .makespan_ms();
}

void expect_memo_matches_reference(const PipelinePlan& plan,
                                   const StaticEvaluator& eval) {
  const double memo = simulate_plan_makespan(plan, eval);
  const double reference = reference_makespan(plan, eval);
  EXPECT_TRUE(same_bits(memo, reference)) << memo << " vs " << reference;
}

/// Every column and derived structure of a plan lowering equals the
/// compiled-plan lowering's, which runs the generic finalize().
void expect_tables_equal(const sim::TaskTable& a, const sim::TaskTable& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.model_idx, b.model_idx);
  EXPECT_EQ(a.seq_in_model, b.seq_in_model);
  EXPECT_EQ(a.proc_idx, b.proc_idx);
  EXPECT_EQ(a.solo_ms, b.solo_ms);
  EXPECT_EQ(a.sensitivity, b.sensitivity);
  EXPECT_EQ(a.intensity, b.intensity);
  EXPECT_EQ(a.arrival_ms, b.arrival_ms);
  EXPECT_EQ(a.dep_offsets, b.dep_offsets);
  EXPECT_EQ(a.dep_edges, b.dep_edges);
  EXPECT_EQ(a.num_models, b.num_models);
  EXPECT_EQ(a.num_procs, b.num_procs);
  EXPECT_EQ(a.max_proc_idx, b.max_proc_idx);
  EXPECT_EQ(a.dispatch_order, b.dispatch_order);
  EXPECT_EQ(a.dispatch_rank, b.dispatch_rank);
  EXPECT_EQ(a.arrival_order, b.arrival_order);
  EXPECT_EQ(a.succ_offsets, b.succ_offsets);
  EXPECT_EQ(a.succ_edges, b.succ_edges);
}

TEST(DeltaLowering, ReplayedTailSweepMatchesReference) {
  // Score exactly the candidate sequence an alignment + tail sweep
  // produces, through the memoized path and through the reference, and
  // re-lower each candidate into one long-lived table.
  for (const Soc& soc : {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    SCOPED_TRACE(soc.name());
    Fixture fx({ModelId::kYOLOv4, ModelId::kBERT, ModelId::kSqueezeNet,
                ModelId::kResNet50, ModelId::kAlexNet, ModelId::kMobileNetV2,
                ModelId::kVGG16, ModelId::kSqueezeNet},
               soc);
    const std::size_t P = fx.soc.num_processors();
    PipelinePlan plan = horizontal_plan(*fx.eval, P);
    sim::TaskTable delta;
    std::size_t calls = 0;
    const PlanScorer checked = [&](const PipelinePlan& p) {
      const double memo = simulate_plan_makespan(p, *fx.eval);
      EXPECT_TRUE(same_bits(memo, reference_makespan(p, *fx.eval))) << "call " << calls;
      delta.build_from_plan(p, *fx.eval);
      sim::TaskTable fresh;
      fresh.build_from_compiled(exec::compile(p, *fx.eval), P);
      expect_tables_equal(delta, fresh);
      ++calls;
      return memo;
    };
    vertical_align(plan, *fx.eval, {}, checked);
    EXPECT_GT(calls, 8u);
  }
}

/// Kirin990 with every processor at half its peak: same processor count,
/// different costs.
Soc halved_kirin() {
  const Soc base = Soc::kirin990();
  std::vector<Processor> procs = base.processors();
  for (Processor& p : procs) p.peak_gflops *= 0.5;
  return Soc("Kirin990-half", std::move(procs), base.bus_bw_gbps(),
             base.mem_capacity_bytes(), base.available_bytes(), base.mem_states());
}

TEST(DeltaLowering, EvaluatorsRebuiltAtOneAddress) {
  // Same plan, same slot keys, different evaluators at one address: the
  // memo must tell them apart by generation, not by address.
  const Soc full = Soc::kirin990();
  const Soc half = halved_kirin();
  const Model big_resnet = make_batched_model(zoo_model(ModelId::kResNet50), 2);
  const Model big_squeeze = make_batched_model(zoo_model(ModelId::kSqueezeNet), 2);
  const std::vector<const Model*> plain = {&zoo_model(ModelId::kResNet50),
                                           &zoo_model(ModelId::kSqueezeNet)};
  const std::vector<const Model*> batched = {&big_resnet, &big_squeeze};

  std::optional<StaticEvaluator> eval;
  eval.emplace(full, plain);
  const StaticEvaluator* address = &*eval;
  const PipelinePlan plan = horizontal_plan(*eval, full.num_processors());
  const double on_full = simulate_plan_makespan(plan, *eval);
  expect_memo_matches_reference(plan, *eval);

  eval.emplace(half, plain);
  ASSERT_EQ(&*eval, address);
  const double on_half = simulate_plan_makespan(plan, *eval);
  expect_memo_matches_reference(plan, *eval);
  EXPECT_NE(on_full, on_half);

  eval.emplace(full, batched);
  ASSERT_EQ(&*eval, address);
  const double on_batched = simulate_plan_makespan(plan, *eval);
  expect_memo_matches_reference(plan, *eval);
  EXPECT_NE(on_full, on_batched);
}

TEST(DeltaLowering, InterleavedEvaluatorsOnOneThread) {
  const Soc full = Soc::kirin990();
  const Soc half = halved_kirin();
  const std::vector<const Model*> models = {
      &zoo_model(ModelId::kResNet50), &zoo_model(ModelId::kBERT),
      &zoo_model(ModelId::kSqueezeNet), &zoo_model(ModelId::kMobileNetV2)};
  const StaticEvaluator a(full, models);
  const StaticEvaluator b(half, models);
  const std::size_t K = full.num_processors();
  PipelinePlan plan = horizontal_plan(a, K);
  Rng rng(7300);
  for (int round = 0; round < 12; ++round) {
    expect_memo_matches_reference(plan, a);
    expect_memo_matches_reference(plan, b);
    // One-slot edit between rounds: the tail sweep's candidate shape.
    const std::size_t slot = rng.index(plan.models.size());
    const std::size_t n = a.model(plan.models[slot].model_index).num_layers();
    std::fill(plan.models[slot].slices.begin(), plan.models[slot].slices.end(),
              Slice{0, 0});
    plan.models[slot].slices[rng.index(K)] = Slice{0, n};
  }
}

TEST(DeltaLowering, ThrowingPlansLeaveNoStaleRows) {
  Fixture fx(testing_util::mixed_four());
  const std::size_t K = fx.soc.num_processors();
  const PipelinePlan valid = horizontal_plan(*fx.eval, K);
  expect_memo_matches_reference(valid, *fx.eval);

  // Slot 0 edited (valid), slot 1 names a model the evaluator lacks.
  PipelinePlan bad_index = valid;
  bad_index.models[0].slices.assign(K, Slice{0, 0});
  bad_index.models[0].slices[0] =
      Slice{0, fx.eval->model(valid.models[0].model_index).num_layers()};
  bad_index.models[1].model_index = 99;
  // Slot 2's last slice runs past its model's end.
  PipelinePlan past_end = valid;
  past_end.models[2].slices[K - 1].end += 5;

  // Each bad plan throws every time: a slot that failed validation must
  // not be mistaken for a memoized one on the retry.
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_THROW((void)simulate_plan_makespan(bad_index, *fx.eval),
                 std::invalid_argument);
    EXPECT_THROW((void)simulate_plan_makespan(past_end, *fx.eval),
                 std::invalid_argument);
  }

  PipelinePlan edited = bad_index;
  edited.models[1].model_index = valid.models[1].model_index;
  expect_memo_matches_reference(edited, *fx.eval);
  expect_memo_matches_reference(valid, *fx.eval);
  EXPECT_THROW((void)simulate_plan_makespan(past_end, *fx.eval),
               std::invalid_argument);
  expect_memo_matches_reference(valid, *fx.eval);
}

// ---- tail-sweep collapse bound ------------------------------------------------

/// The collapse bound as the DES-mode sweep computed it while it kept an
/// IncrementalStaticScorer: zero-padded per-slot solo rows and
/// per-processor sums, the lane-wise (proc_solo - cell) + row, and a
/// fixed_max with baseline 0 over the padded lanes.
class LaneWiseBoundOracle {
 public:
  LaneWiseBoundOracle(const StaticEvaluator& eval, const PipelinePlan& plan)
      : eval_(&eval), K_(plan.num_stages), Kp_(simd::padded_size(plan.num_stages)),
        cell_(plan.models.size() * Kp_, 0.0), proc_solo_(Kp_, 0.0) {
    for (std::size_t i = 0; i < plan.models.size(); ++i) {
      const std::vector<double> r = row(plan.models[i]);
      std::copy(r.begin(), r.end(), cell_.begin() + static_cast<std::ptrdiff_t>(i * Kp_));
    }
    for (std::size_t k = 0; k < K_; ++k) {
      for (std::size_t i = 0; i < plan.models.size(); ++i) {
        proc_solo_[k] += cell_[i * Kp_ + k];
      }
    }
  }

  [[nodiscard]] double bound(std::size_t slot, const ModelPlan& candidate) const {
    const std::vector<double> r = row(candidate);
    std::vector<double> tmp(Kp_);
    const double* cs = cell_.data() + slot * Kp_;
    for (std::size_t k = 0; k < Kp_; ++k) tmp[k] = (proc_solo_[k] - cs[k]) + r[k];
    return simd::fixed_max(tmp.data(), Kp_, 0.0);
  }

  void apply(std::size_t slot, const ModelPlan& accepted) {
    const std::vector<double> r = row(accepted);
    for (std::size_t k = 0; k < K_; ++k) {
      proc_solo_[k] += r[k] - cell_[slot * Kp_ + k];
    }
    std::copy(r.begin(), r.end(), cell_.begin() + static_cast<std::ptrdiff_t>(slot * Kp_));
  }

 private:
  [[nodiscard]] std::vector<double> row(const ModelPlan& mp) const {
    std::vector<double> r(Kp_, 0.0);
    for (std::size_t k = 0; k < K_; ++k) r[k] = eval_->stage_solo_ms(mp, k);
    return r;
  }

  const StaticEvaluator* eval_;
  std::size_t K_;
  std::size_t Kp_;
  std::vector<double> cell_;
  std::vector<double> proc_solo_;
};

TEST(CollapseBound, MatchesLaneWiseOracleOnReplayedSweep) {
  // Replay a DES-scored tail sweep without pruning (pruning never changes
  // a decision, so it accepts what optimize_tail accepts) and compare the
  // two bounds bit for bit on every collapse of every model.
  for (const Soc& soc : {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    SCOPED_TRACE(soc.name());
    Fixture fx({ModelId::kYOLOv4, ModelId::kBERT, ModelId::kSqueezeNet,
                ModelId::kResNet50, ModelId::kAlexNet, ModelId::kMobileNetV2,
                ModelId::kVGG16, ModelId::kSqueezeNet},
               soc);
    const StaticEvaluator& eval = *fx.eval;
    const std::size_t K = fx.soc.num_processors();
    const PlanScorer des = [&eval](const PipelinePlan& p) {
      double score = simulate_plan_makespan(p, eval);
      if (!eval.satisfies_memory(p)) score *= 1.5;
      return score;
    };
    PipelinePlan plan = horizontal_plan(eval, K);
    WorkStealingOptions no_tail;
    no_tail.tail_optimization = false;
    vertical_align(plan, eval, no_tail);
    PipelinePlan swept = plan;
    optimize_tail(swept, eval, des);

    CollapseBound lb(eval, plan);
    LaneWiseBoundOracle oracle(eval, plan);
    double plan_score = des(plan);
    std::size_t checked = 0;
    std::size_t accepts = 0;
    for (std::size_t t = 0; t < plan.models.size(); ++t) {
      const std::size_t i = plan.models.size() - 1 - t;
      const std::size_t n = eval.model(plan.models[i].model_index).num_layers();
      double best = plan_score;
      std::optional<ModelPlan> accepted;
      std::size_t accepted_s = 0;
      for (std::size_t s = 0; s < K; ++s) {
        ModelPlan cand = plan.models[i];
        cand.slices.assign(K, Slice{0, 0});
        cand.slices[s] = Slice{0, n};
        const double collapse_ms = eval.stage_solo_ms(cand, s);
        const double expected = oracle.bound(i, cand);
        const double got = lb.bound(i, s, collapse_ms);
        ASSERT_TRUE(same_bits(got, expected))
            << "model " << i << " collapse " << s << ": " << got << " vs " << expected;
        ++checked;
        if (cand.slices == plan.models[i].slices) continue;
        PipelinePlan edited = plan;
        edited.models[i] = cand;
        const double score = des(edited);
        if (score + 1e-9 < best) {
          best = score;
          accepted = cand;
          accepted_s = s;
        }
      }
      if (accepted) {
        lb.apply(i, accepted_s, eval.stage_solo_ms(*accepted, accepted_s));
        oracle.apply(i, *accepted);
        plan.models[i] = *accepted;
        plan_score = best;
        ++accepts;
      }
    }
    EXPECT_EQ(checked, plan.models.size() * K);
    EXPECT_GT(accepts, 0u);
    for (std::size_t i = 0; i < plan.models.size(); ++i) {
      EXPECT_EQ(plan.models[i].slices, swept.models[i].slices) << "slot " << i;
    }
  }
}

}  // namespace
}  // namespace h2p
