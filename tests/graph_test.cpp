#include <gtest/gtest.h>

#include <string>

#include "core/planner.h"
#include "models/graph.h"
#include "models/model_zoo.h"
#include "sim/pipeline_sim.h"

namespace h2p {
namespace {

/// `prefix` + i + `suffix`, appended in place: GCC 12 reports a false
/// -Wrestrict on inlined `"literal" + std::string` concatenation.
std::string numbered(const char* prefix, int i, const char* suffix = "") {
  std::string out(prefix);
  out += std::to_string(i);
  out += suffix;
  return out;
}

Layer tiny(const std::string& name, double flops = 100.0) {
  Layer l = make_activation(name, LayerKind::kReLU, flops);
  l.flops = flops;
  return l;
}

/// stem -> {branch_a1 -> branch_a2, branch_b} -> concat -> head
GraphModel inception_cell() {
  GraphModel g("cell");
  const std::size_t stem = g.add(tiny("stem", 10));
  const std::size_t a1 = g.add(tiny("a1", 20), {stem});
  const std::size_t a2 = g.add(tiny("a2", 30), {a1});
  const std::size_t b = g.add(tiny("b", 40), {stem});
  const std::size_t cat = g.add(tiny("concat", 5), {a2, b});
  g.add(tiny("head", 15), {cat});
  return g;
}

TEST(Graph, AddValidatesDependencies) {
  GraphModel g("g");
  g.add(tiny("a"));
  EXPECT_THROW(g.add(tiny("b"), {5}), std::out_of_range);
}

TEST(Graph, IsValidDagByConstruction) {
  EXPECT_TRUE(inception_cell().is_valid_dag());
}

TEST(Graph, TopologicalOrderRespectsDependencies) {
  const GraphModel g = inception_cell();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<std::size_t> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (std::size_t id = 0; id < g.num_nodes(); ++id) {
    for (std::size_t dep : g.inputs(id)) {
      EXPECT_LT(position[dep], position[id]);
    }
  }
}

TEST(Graph, BranchesStayContiguous) {
  const GraphModel g = inception_cell();
  const auto order = g.topological_order();
  std::vector<std::size_t> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  // Branch a's two layers (ids 1, 2) are adjacent in the linearization.
  EXPECT_EQ(position[2], position[1] + 1);
}

TEST(Graph, LinearizePreservesEverything) {
  const GraphModel g = inception_cell();
  const Model m = g.linearize();
  EXPECT_EQ(m.num_layers(), g.num_nodes());
  EXPECT_DOUBLE_EQ(m.total_flops(), g.total_flops());
  EXPECT_EQ(m.name(), "cell");
}

TEST(Graph, LinearizedChainIsSliceable) {
  // The linear model goes straight into the standard slicing machinery.
  const Model m = inception_cell().linearize();
  EXPECT_DOUBLE_EQ(m.range_flops(0, m.num_layers() - 1), m.total_flops());
}

TEST(Graph, EmptyGraph) {
  GraphModel g("empty");
  EXPECT_TRUE(g.is_valid_dag());
  EXPECT_TRUE(g.topological_order().empty());
  EXPECT_EQ(g.linearize().num_layers(), 0u);
}

TEST(Graph, DiamondWideGraph) {
  GraphModel g("diamond");
  const std::size_t s = g.add(tiny("s", 1));
  std::vector<std::size_t> mids;
  for (int i = 0; i < 8; ++i) {
    mids.push_back(g.add(tiny(numbered("m", i), 10), {s}));
  }
  g.add(tiny("join", 1), mids);
  const auto order = g.topological_order();
  EXPECT_EQ(order.front(), s);
  EXPECT_EQ(order.back(), g.num_nodes() - 1);
  EXPECT_DOUBLE_EQ(g.total_flops(), 82.0);
}


TEST(Graph, LinearizedGraphPlansEndToEnd) {
  // A branchy graph authored through the IR flows through the full planner
  // stack once linearized.
  GraphModel g("custom_app_model");
  std::size_t prev = g.add(make_conv2d("stem", 3, 32, 3, 56, 56));
  for (int cell = 0; cell < 4; ++cell) {
    const std::size_t a = g.add(
        make_conv2d(numbered("c", cell, ".a"), 32, 32, 1, 56, 56), {prev});
    const std::size_t b = g.add(
        make_conv2d(numbered("c", cell, ".b"), 32, 32, 3, 56, 56), {prev});
    prev = g.add(make_concat(numbered("c", cell, ".cat"), 64.0 * 56 * 56),
                 {a, b});
  }
  g.add(make_fully_connected("head", 32 * 56 * 56, 100), {prev});

  const Model linear = g.linearize();
  const Soc soc = Soc::kirin990();
  std::vector<const Model*> models = {&linear, &zoo_model(ModelId::kBERT)};
  const StaticEvaluator eval(soc, models);
  const PlannerReport report = Hetero2PipePlanner(eval).plan();
  for (const ModelPlan& mp : report.plan.models) {
    EXPECT_TRUE(mp.covers(eval.model(mp.model_index).num_layers()));
  }
  EXPECT_GT(simulate_plan(report.plan, eval).makespan_ms(), 0.0);
}

}  // namespace
}  // namespace h2p
