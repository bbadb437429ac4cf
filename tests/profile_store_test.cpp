// Tests for the per-thread profile store (soc/cost_model.h) and the
// Algorithm-1 slicing memo (core/bubbles.h): every table, slicing and plan
// is bit-identical whether the memos are cold or warm, blocks are keyed on
// exactly the processor fields they read, eviction never invalidates a live
// table, each thread's memos are its own, and concurrent builders agree
// with a serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/bubbles.h"
#include "core/graph_planner.h"
#include "core/partition.h"
#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "soc/cost_model.h"
#include "soc/thermal.h"
#include "test_helpers.h"

namespace h2p {
namespace {

void clear_memos() {
  profile_store::clear();
  slicing_memo::clear();
}

std::vector<Soc> three_socs() {
  return {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()};
}

/// NPU masked out and the bus at 80%: the kind of view the online loop plans
/// against after a drop-out under bus theft.
Soc degraded_view(const Soc& soc) {
  std::vector<Processor> procs(soc.processors().begin() + 1, soc.processors().end());
  return Soc(soc.name(), std::move(procs), soc.bus_bw_gbps() * 0.8,
             soc.mem_capacity_bytes(), soc.available_bytes(), soc.mem_states());
}

/// Every SoC view the table-equivalence test covers: 3 SoCs x thermal
/// buckets 0-3, each full and degraded.
std::vector<Soc> all_views() {
  std::vector<Soc> views;
  for (const Soc& soc : three_socs()) {
    for (std::size_t bucket = 0; bucket <= 3; ++bucket) {
      const Soc derated = thermally_derated_bucket(soc, bucket);
      views.push_back(derated);
      views.push_back(degraded_view(derated));
    }
  }
  return views;
}

/// Zoo, extended-zoo and linearized-graph models.
std::vector<Model> all_models() {
  std::vector<Model> models;
  for (const ModelId id : extended_model_ids()) models.push_back(zoo_model(id));
  for (const GraphId id : all_graph_ids()) models.push_back(zoo_graph(id).linearize());
  return models;
}

/// A strided sample of every query a planner makes of a table, flattened.
std::vector<double> table_fingerprint(const CostTable& t) {
  std::vector<double> out;
  const std::size_t n = t.num_layers();
  const std::size_t step = std::max<std::size_t>(1, n / 10);
  for (std::size_t k = 0; k < t.num_procs(); ++k) {
    const auto sample = [&](std::size_t i, std::size_t j) {
      const SliceCost c = t.slice_cost(k, i, j);
      const CostTable::SliceSimCosts s = t.slice_sim_costs(k, i, j);
      out.insert(out.end(), {c.total_ms, c.compute_ms, c.memory_ms, c.dram_bytes,
                             static_cast<double>(c.used_npu_fallback),
                             static_cast<double>(c.fallback_from_layer), s.exec_ms,
                             s.sensitivity, s.intensity, s.dram_bytes});
    };
    for (std::size_t i = 0; i < n; i += step) {
      out.push_back(t.boundary_copy_ms(k, i));
      for (std::size_t j = i; j < n; j += step) sample(i, j);
      sample(i, n - 1);
    }
  }
  return out;
}

TEST(ProfileStore, TablesBitIdenticalColdAndWarm) {
  const std::vector<Soc> views = all_views();
  const std::vector<Model> models = all_models();

  // Cold: every table built right after a clear, so each block is computed
  // for it alone.
  std::vector<std::vector<double>> cold;
  for (const Soc& view : views) {
    const CostModel cost(view);
    for (const Model& m : models) {
      profile_store::clear();
      const CostTable t(m, cost);
      EXPECT_EQ(t.profile_misses(), view.num_processors());
      cold.push_back(table_fingerprint(t));
    }
  }

  // Warm: one pass over a store the other views keep filling.  Each
  // degraded view follows its full view and shares every block with it.
  profile_store::clear();
  std::size_t idx = 0;
  for (std::size_t v = 0; v < views.size(); ++v) {
    const CostModel cost(views[v]);
    for (const Model& m : models) {
      const CostTable t(m, cost);
      if (v % 2 == 1) {
        EXPECT_EQ(t.profile_misses(), 0u);
      }
      EXPECT_EQ(table_fingerprint(t), cold[idx])
          << views[v].fingerprint() << " " << m.name();
      ++idx;
    }
  }
}

std::vector<exec::ScheduledSlice> compiled_chain_plan(const Soc& soc,
                                                      const std::vector<const Model*>& ms) {
  const StaticEvaluator eval(soc, ms);
  return exec::compile(Hetero2PipePlanner(eval).plan().plan, eval).slices;
}

TEST(ProfileStore, PlansBitIdenticalColdAndWarm) {
  const testing_util::Fixture fx(testing_util::mixed_six());
  std::vector<const GraphModel*> graphs;
  for (const GraphId id : all_graph_ids()) graphs.push_back(&zoo_graph(id));
  std::vector<Soc> views;
  for (const Soc& soc : three_socs()) {
    views.push_back(soc);
    views.push_back(degraded_view(soc));
  }

  // Cold: each plan starts from empty memos.
  std::vector<std::vector<exec::ScheduledSlice>> chain_cold;
  std::vector<std::vector<exec::ScheduledSlice>> graph_cold;
  for (const Soc& view : views) {
    clear_memos();
    chain_cold.push_back(compiled_chain_plan(view, fx.models));
    clear_memos();
    graph_cold.push_back(GraphPlanner(view, graphs).plan().compiled.slices);
  }

  // Warm: the memos fill up across every view, so a key that forgot part
  // of the SoC would serve one view another view's blocks or slicings.
  clear_memos();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t v = 0; v < views.size(); ++v) {
      EXPECT_EQ(compiled_chain_plan(views[v], fx.models), chain_cold[v])
          << views[v].fingerprint();
      EXPECT_EQ(GraphPlanner(views[v], graphs).plan().compiled.slices, graph_cold[v])
          << views[v].fingerprint();
    }
  }
}

TEST(ProfileStore, HorizontalSlicingMatchesAlgorithmOne) {
  clear_memos();
  const testing_util::Fixture fx(testing_util::mixed_six());
  const std::size_t K = fx.soc.num_processors();
  for (int pass = 0; pass < 2; ++pass) {  // cold, then from the memo
    const PipelinePlan plan = horizontal_plan(*fx.eval, K);
    for (std::size_t i = 0; i < fx.models.size(); ++i) {
      EXPECT_EQ(plan.models[i].slices, partition_model(fx.eval->table(i), K).slices);
    }
  }
}

Soc with_processor(const Soc& soc, std::size_t k, const Processor& proc) {
  std::vector<Processor> procs = soc.processors();
  procs[k] = proc;
  return Soc(soc.name(), std::move(procs), soc.bus_bw_gbps(), soc.mem_capacity_bytes(),
             soc.available_bytes(), soc.mem_states());
}

TEST(ProfileStore, OneUlpInAKeyedFieldIsADistinctBlock) {
  profile_store::clear();
  const Soc soc = Soc::kirin990();
  const Model& m = zoo_model(ModelId::kResNet50);
  const CostModel base_cost(soc);
  const CostTable base(m, base_cost);
  constexpr std::size_t kProc = 2;

  const auto up = [](double v) { return std::nextafter(v, 1e300); };
  const std::vector<void (*)(Processor&)> keyed = {
      [](Processor& p) { p.kind = ProcKind::kCpuSmall; },
      [](Processor& p) { p.peak_gflops = std::nextafter(p.peak_gflops, 1e300); },
      [](Processor& p) { p.mem_bw_gbps = std::nextafter(p.mem_bw_gbps, 1e300); },
      [](Processor& p) { p.l2_bytes = std::nextafter(p.l2_bytes, 1e300); },
      [](Processor& p) {
        p.launch_overhead_ms = std::nextafter(p.launch_overhead_ms, 1e300);
      },
  };
  for (std::size_t f = 0; f < keyed.size(); ++f) {
    Processor proc = soc.processor(kProc);
    keyed[f](proc);
    const Soc changed = with_processor(soc, kProc, proc);
    const CostModel cost(changed);
    const CostTable t(m, cost);
    EXPECT_EQ(t.profile_misses(), 1u) << "field " << f;
    for (std::size_t k = 0; k < soc.num_processors(); ++k) {
      if (k == kProc) {
        EXPECT_NE(&t.profile(k), &base.profile(k)) << "field " << f;
      } else {
        EXPECT_EQ(&t.profile(k), &base.profile(k)) << "field " << f << " proc " << k;
      }
    }
  }

  // Fields a block never reads share it: copy latency, TDP, name, batch
  // capacity, and everything SoC-level (the bus).
  Processor unkeyed = soc.processor(kProc);
  unkeyed.copy_in_latency_ms = up(unkeyed.copy_in_latency_ms);
  unkeyed.tdp_watts = up(unkeyed.tdp_watts);
  unkeyed.name += "-renamed";
  unkeyed.batch_capacity += 1;
  const Soc same_blocks = with_processor(soc, kProc, unkeyed);
  const Soc slow_bus(soc.name(), soc.processors(), soc.bus_bw_gbps() * 0.5,
                     soc.mem_capacity_bytes(), soc.available_bytes(), soc.mem_states());
  for (const Soc* view : {&same_blocks, &slow_bus}) {
    const CostModel cost(*view);
    const CostTable t(m, cost);
    EXPECT_EQ(t.profile_misses(), 0u);
    EXPECT_EQ(&t.profile(kProc), &base.profile(kProc));
  }
}

TEST(ProfileStore, EvictionLeavesLiveTablesValid) {
  profile_store::clear();
  const Model& m = zoo_model(ModelId::kSqueezeNet);
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const CostTable held(m, cost);
  const std::vector<double> before = table_fingerprint(held);

  // Fill the store past capacity with single-processor SoCs of distinct
  // throughput, all over a one-layer model.
  const Model tiny("tiny", {make_conv2d("c", 3, 8, 3, 8, 8)});
  Processor proc = soc.processor(1);
  for (std::size_t i = 0; i <= profile_store::kCapacity; ++i) {
    proc.peak_gflops = 10.0 + static_cast<double>(i);
    const Soc one("one", {proc}, 10.0, 1e9, 1e9, {});
    const CostModel one_cost(one);
    const CostTable t(tiny, one_cost);
    EXPECT_EQ(t.profile_misses(), 1u);
  }
  EXPECT_EQ(profile_store::size(), profile_store::kCapacity);

  // The held table's blocks were evicted from the store but not freed.
  EXPECT_EQ(table_fingerprint(held), before);
  const CostTable rebuilt(m, cost);
  EXPECT_EQ(rebuilt.profile_misses(), soc.num_processors());
  EXPECT_NE(&rebuilt.profile(0), &held.profile(0));
  EXPECT_EQ(table_fingerprint(rebuilt), before);
}

TEST(ProfileStore, ConcurrentEvaluatorsAgreeWithSerial) {
  const testing_util::Fixture fx(testing_util::mixed_six());
  clear_memos();
  const auto serial = compiled_chain_plan(fx.soc, fx.models);

  for (int round = 0; round < 4; ++round) {
    clear_memos();
    std::vector<exec::ScheduledSlice> a;
    std::vector<exec::ScheduledSlice> b;
    std::thread ta([&] { a = compiled_chain_plan(fx.soc, fx.models); });
    std::thread tb([&] { b = compiled_chain_plan(fx.soc, fx.models); });
    ta.join();
    tb.join();
    EXPECT_EQ(a, serial);
    EXPECT_EQ(b, serial);
  }
}

TEST(ProfileStore, EachThreadOwnsItsStore) {
  const testing_util::Fixture fx(testing_util::mixed_six());
  clear_memos();
  const auto here = compiled_chain_plan(fx.soc, fx.models);
  const std::size_t blocks = profile_store::size();
  ASSERT_GT(blocks, 0u);

  std::vector<exec::ScheduledSlice> there;
  std::size_t there_before = 1;
  std::size_t there_planned = 0;
  std::size_t there_cleared = 1;
  std::thread other([&] {
    there_before = profile_store::size();
    there = compiled_chain_plan(fx.soc, fx.models);
    there_planned = profile_store::size();
    clear_memos();
    there_cleared = profile_store::size();
  });
  other.join();
  // The other thread started cold, filled a store of its own and cleared
  // only that one.
  EXPECT_EQ(there_before, 0u);
  EXPECT_EQ(there_planned, blocks);
  EXPECT_EQ(there_cleared, 0u);
  EXPECT_EQ(profile_store::size(), blocks);
  const StaticEvaluator warm(fx.soc, fx.models);
  for (std::size_t i = 0; i < fx.models.size(); ++i) {
    EXPECT_EQ(warm.table(i).profile_misses(), 0u) << i;
  }
  EXPECT_EQ(there, here);
  EXPECT_EQ(compiled_chain_plan(fx.soc, fx.models), here);
}

/// The documented record stream of Model::content_hash, recomputed from
/// scratch: per layer its fields, then its (chain) input edge list.
std::uint64_t recomputed_hash(const Model& m) {
  std::uint64_t h = kHashSeed;
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    h = layer_hash(m.layer(i), h);
    h = hash_mix(h, static_cast<std::uint64_t>(i == 0 ? 0 : 1));
    if (i > 0) h = hash_mix(h, static_cast<std::uint64_t>(i - 1));
  }
  return hash_mix(h, static_cast<std::uint64_t>(m.num_layers()));
}

TEST(ProfileStore, CachedContentHashMatchesRecomputation) {
  for (const ModelId id : extended_model_ids()) {
    const Model& m = zoo_model(id);
    EXPECT_EQ(m.content_hash(), recomputed_hash(m)) << m.name();
    const Model batched = make_batched_model(m, 3);
    EXPECT_EQ(batched.content_hash(), recomputed_hash(batched)) << batched.name();
    EXPECT_NE(batched.content_hash(), m.content_hash());
  }
  const Model empty;
  EXPECT_EQ(empty.content_hash(), recomputed_hash(empty));
  EXPECT_EQ(empty.num_layers(), 0u);
  for (const GraphId id : all_graph_ids()) {
    const Model lin = zoo_graph(id).linearize();
    EXPECT_EQ(lin.content_hash(), recomputed_hash(lin)) << lin.name();
  }
}

}  // namespace
}  // namespace h2p
