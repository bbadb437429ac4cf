#include <gtest/gtest.h>

#include <vector>

#include "core/graph_planner.h"
#include "core/partition.h"
#include "core/planner.h"
#include "core/serialize.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "sim/pipeline_sim.h"
#include "soc/soc.h"

namespace h2p {
namespace {

std::vector<const GraphModel*> pointers(const std::vector<GraphModel>& graphs) {
  std::vector<const GraphModel*> ptrs;
  for (const GraphModel& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

void expect_compiled_equal(const exec::CompiledPlan& a,
                           const exec::CompiledPlan& b) {
  EXPECT_EQ(a.num_stages, b.num_stages);
  EXPECT_EQ(a.num_models, b.num_models);
  EXPECT_EQ(a.original_index, b.original_index);
  EXPECT_EQ(a.model_names, b.model_names);
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    EXPECT_EQ(a.slices[i], b.slices[i]) << "slice " << i;
  }
}

// ---- Chain equivalence ----------------------------------------------------

TEST(GraphPlannerChain, ByteIdenticalToLegacyModelPath) {
  const Soc soc = Soc::kirin990();
  std::vector<GraphModel> graphs;
  graphs.push_back(GraphModel::from_chain(zoo_model(ModelId::kAlexNet)));
  graphs.push_back(GraphModel::from_chain(zoo_model(ModelId::kResNet50)));
  const GraphPlanner planner(soc, pointers(graphs));
  const GraphPlannerReport rep = planner.plan();

  // Legacy path on the raw Models.
  std::vector<const Model*> models = {&zoo_model(ModelId::kAlexNet),
                                      &zoo_model(ModelId::kResNet50)};
  const StaticEvaluator eval(soc, models);
  const PlannerReport legacy = Hetero2PipePlanner(eval).plan();
  const exec::CompiledPlan legacy_compiled = exec::compile(legacy.plan, eval);

  EXPECT_FALSE(rep.dag_accepted);
  EXPECT_TRUE(rep.dag_slots.empty());
  EXPECT_EQ(rep.offloaded_branches, 0u);
  expect_compiled_equal(rep.compiled, legacy_compiled);
  // Exact doubles, not approximate: same planner, same arithmetic.
  EXPECT_EQ(rep.chain_report.static_makespan_ms, legacy.static_makespan_ms);
  EXPECT_EQ(rep.chain_des_ms, rep.final_des_ms);
}

TEST(GraphPlannerChain, LinearGraphKeysMatchModelKeys) {
  const Model& m = zoo_model(ModelId::kMobileNetV2);
  EXPECT_EQ(GraphModel::from_chain(m).topology_hash(), m.content_hash());
}

// ---- Branchy planning -----------------------------------------------------

TEST(GraphPlannerDag, HybridCellForksAcrossProcessors) {
  const Soc soc = Soc::kirin990();
  std::vector<GraphModel> graphs;
  graphs.push_back(zoo_graph(GraphId::kHybridAttnCell));
  const GraphPlanner planner(soc, pointers(graphs));
  const GraphPlannerReport rep = planner.plan();

  ASSERT_TRUE(rep.dag_accepted);
  EXPECT_GE(rep.offloaded_branches, 1u);
  ASSERT_EQ(rep.dag_slots.size(), 1u);
  EXPECT_LT(rep.final_des_ms, rep.chain_des_ms);

  // The DES timeline must show >= 2 slices of the SAME model overlapping in
  // time on DIFFERENT processors — the parallelism a chain cannot express.
  const Timeline tl = simulate(soc, tasks_from_compiled(rep.compiled));
  bool overlap = false;
  for (std::size_t i = 0; i < tl.tasks.size() && !overlap; ++i) {
    for (std::size_t j = i + 1; j < tl.tasks.size(); ++j) {
      const TaskRecord& a = tl.tasks[i];
      const TaskRecord& b = tl.tasks[j];
      if (a.model_idx == b.model_idx && a.proc_idx != b.proc_idx &&
          a.start_ms < b.end_ms && b.start_ms < a.end_ms) {
        overlap = true;
        break;
      }
    }
  }
  EXPECT_TRUE(overlap);
}

TEST(GraphPlannerDag, CandidateNeverWorseThanChain) {
  const Soc soc = Soc::kirin990();
  for (GraphId id : all_graph_ids()) {
    std::vector<GraphModel> graphs{zoo_graph(id)};
    const GraphPlanner planner(soc, pointers(graphs));
    const GraphPlannerReport rep = planner.plan();
    EXPECT_LE(rep.final_des_ms, rep.chain_des_ms + 1e-9) << to_string(id);
    const Timeline tl = simulate(soc, tasks_from_compiled(rep.compiled));
    EXPECT_NEAR(tl.makespan_ms(), rep.final_des_ms, 1e-9) << to_string(id);
  }
}

TEST(GraphPlannerDag, JoinSliceDependsOnEveryBranch) {
  const Soc soc = Soc::kirin990();
  std::vector<GraphModel> graphs{zoo_graph(GraphId::kHybridAttnCell)};
  const GraphPlannerReport rep = GraphPlanner(soc, pointers(graphs)).plan();
  ASSERT_TRUE(rep.dag_accepted);
  // Deps are global indices pointing at earlier slices, and at least one
  // slice (the post-join chain) has >= 2 predecessors.
  bool has_join = false;
  for (std::size_t i = 0; i < rep.compiled.slices.size(); ++i) {
    for (const std::size_t d : rep.compiled.slices[i].deps) {
      EXPECT_LT(d, i);
    }
    if (rep.compiled.slices[i].deps.size() >= 2) has_join = true;
  }
  EXPECT_TRUE(has_join);
  EXPECT_FALSE(rep.compiled.chain_precedence());
}

// ---- Determinism ----------------------------------------------------------

TEST(GraphPlannerDeterminism, RepeatedPlansIdentical) {
  const Soc soc = Soc::kirin990();
  std::vector<GraphModel> graphs{zoo_graph(GraphId::kHybridAttnCell)};
  const GraphPlanner planner(soc, pointers(graphs));
  const GraphPlannerReport a = planner.plan();
  const GraphPlannerReport b = planner.plan();
  expect_compiled_equal(a.compiled, b.compiled);
  EXPECT_EQ(a.final_des_ms, b.final_des_ms);
}

// ---- Graph aggregate queries ----------------------------------------------

TEST(GraphPlannerGraphOps, ZooCellDecomposition) {
  const GraphModel& g = zoo_graph(GraphId::kInceptionCell);
  const GraphDecomposition d = g.decompose();
  // Exactly one multi-branch segment, with the four Inception branches.
  std::size_t branchy = 0;
  for (const auto& seg : d.segments) {
    if (seg.branches.size() >= 2) {
      ++branchy;
      EXPECT_EQ(seg.branches.size(), 4u);
      for (const auto& br : seg.branches) {
        // Branch bodies are contiguous position runs.
        EXPECT_EQ(br.back() - br.front() + 1, br.size());
      }
    }
  }
  EXPECT_EQ(branchy, 1u);
  EXPECT_FALSE(g.is_chain());
}

TEST(GraphPlannerGraphOps, ChainIsDegenerateDecomposition) {
  const GraphModel g = GraphModel::from_chain(zoo_model(ModelId::kAlexNet));
  EXPECT_TRUE(g.is_chain());
  const GraphDecomposition d = g.decompose();
  // Every position is an articulation point in a chain.
  for (std::size_t pos = 0; pos < d.order.size(); ++pos) {
    EXPECT_TRUE(d.articulation[pos]) << pos;
  }
  for (const auto& seg : d.segments) EXPECT_LT(seg.branches.size(), 2u);
}

// ---- Restricted partition -------------------------------------------------

TEST(GraphPlannerPartition, AllBoundariesLegalMatchesUnrestricted) {
  const auto cost = [](std::size_t, std::size_t i, std::size_t j) {
    return static_cast<double>(j - i + 1);
  };
  const std::size_t n = 10, K = 3;
  std::vector<std::size_t> legal;
  for (std::size_t b = 1; b < n; ++b) legal.push_back(b);
  const PartitionResult a = partition_minmax(cost, n, K);
  const PartitionResult b = partition_minmax_restricted(cost, n, K, legal);
  EXPECT_EQ(a.slices, b.slices);
  EXPECT_DOUBLE_EQ(a.bottleneck_ms, b.bottleneck_ms);
}

TEST(GraphPlannerPartition, RestrictedCutsOnlyAtLegalBoundaries) {
  const auto cost = [](std::size_t, std::size_t i, std::size_t j) {
    return static_cast<double>(j - i + 1);
  };
  const std::size_t n = 12, K = 4;
  const std::vector<std::size_t> legal = {3, 7, 9};
  const PartitionResult r = partition_minmax_restricted(cost, n, K, legal);
  for (const Slice& s : r.slices) {
    if (s.empty()) continue;
    if (s.begin != 0) {
      EXPECT_TRUE(std::find(legal.begin(), legal.end(), s.begin) != legal.end())
          << s.begin;
    }
    if (s.end != n) {
      EXPECT_TRUE(std::find(legal.begin(), legal.end(), s.end) != legal.end())
          << s.end;
    }
  }
}

// ---- Cache keying regression ----------------------------------------------

TEST(GraphPlannerCache, TopologyHashSeparatesCellFromChain) {
  const GraphModel& cell = zoo_graph(GraphId::kInceptionCell);
  const Model chain = cell.linearize();
  EXPECT_NE(cell.topology_hash(), chain.content_hash());
  // But a genuinely linear graph hashes exactly like its Model.
  const GraphModel linear = GraphModel::from_chain(chain);
  EXPECT_EQ(linear.topology_hash(), chain.content_hash());
}

// ---- JSON round-trip ------------------------------------------------------

TEST(GraphPlannerJson, RoundTripPreservesTopology) {
  for (GraphId id : all_graph_ids()) {
    const GraphModel& g = zoo_graph(id);
    const Json j = graph_to_json(g);
    const GraphModel back = graph_from_json(j);
    EXPECT_EQ(back.name(), g.name()) << to_string(id);
    EXPECT_EQ(back.num_nodes(), g.num_nodes()) << to_string(id);
    EXPECT_EQ(back.topology_hash(), g.topology_hash()) << to_string(id);
    EXPECT_EQ(back.is_chain(), g.is_chain()) << to_string(id);
  }
}

Json node_json(const std::string& name, const std::string& kind,
               std::vector<double> inputs) {
  Json n = Json::object();
  n["name"] = Json::string(name);
  n["kind"] = Json::string(kind);
  n["flops"] = Json::number(100.0);
  n["param_bytes"] = Json::number(10.0);
  n["input_bytes"] = Json::number(10.0);
  n["output_bytes"] = Json::number(10.0);
  n["working_set_bytes"] = Json::number(30.0);
  n["locality"] = Json::number(0.8);
  Json ins = Json::array();
  for (const double v : inputs) ins.push_back(Json::number(v));
  n["inputs"] = std::move(ins);
  return n;
}

TEST(GraphPlannerJson, RejectsUnknownKindAndForwardEdges) {
  Json bad_kind = Json::object();
  bad_kind["name"] = Json::string("bad");
  Json nodes = Json::array();
  nodes.push_back(node_json("a", "Warp", {}));
  bad_kind["nodes"] = std::move(nodes);
  EXPECT_THROW(graph_from_json(bad_kind), std::runtime_error);

  // Inputs must be integer indices of earlier nodes: a later node, a
  // fraction or a huge double must not truncate onto a valid index.
  for (const double input : {3.0, 0.5, 1e300}) {
    Json bad_edge = Json::object();
    bad_edge["name"] = Json::string("bad");
    Json nodes2 = Json::array();
    nodes2.push_back(node_json("a", "ReLU", {}));
    nodes2.push_back(node_json("b", "ReLU", {input}));
    bad_edge["nodes"] = std::move(nodes2);
    EXPECT_THROW(graph_from_json(bad_edge), std::runtime_error) << input;
  }
}

TEST(GraphPlannerJson, ParsedGraphPlansLikeZooGraph) {
  const Soc soc = Soc::kirin990();
  const GraphModel parsed =
      graph_from_json(graph_to_json(zoo_graph(GraphId::kHybridAttnCell)));
  std::vector<GraphModel> graphs{parsed};
  const GraphPlannerReport rep = GraphPlanner(soc, pointers(graphs)).plan();
  EXPECT_TRUE(rep.dag_accepted);

  std::vector<GraphModel> zoo{zoo_graph(GraphId::kHybridAttnCell)};
  const GraphPlannerReport ref = GraphPlanner(soc, pointers(zoo)).plan();
  EXPECT_EQ(rep.final_des_ms, ref.final_des_ms);
}

}  // namespace
}  // namespace h2p
