#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "models/layer.h"
#include "models/model.h"

namespace h2p {

/// Fork/join structure of a DAG, anchored at its articulation points — the
/// nodes every source-to-sink walk passes through.  In a topological order,
/// node at position i is an articulation point iff no edge jumps over it
/// (pos(u) < i < pos(v)); the set is independent of which topological order
/// was chosen.  Between consecutive articulation points lies a *segment*:
/// its interior nodes group into *branches* (weakly connected components)
/// that are mutually independent and may execute on different processors —
/// the intra-model parallelism a chain linearization throws away.
struct GraphDecomposition {
  std::vector<std::size_t> order;     // position -> node id (topological)
  std::vector<std::size_t> position;  // node id -> position
  std::vector<bool> articulation;     // per position
  struct Segment {
    /// Position of the opening articulation node; equals join_pos when the
    /// segment starts at the graph inputs (multi-source head, no fork node).
    std::size_t fork_pos = 0;
    /// Position of the closing articulation node, or order.size() when the
    /// graph ends in a multi-sink fork that never rejoins.
    std::size_t join_pos = 0;
    /// Interior positions grouped by weak component, each list ascending;
    /// ordered by their first position.
    std::vector<std::vector<std::size_t>> branches;
  };
  std::vector<Segment> segments;  // only segments with a non-empty interior
};

/// Directed-acyclic operator graph — the planner's first-class model input.
/// Branchy architectures (Inception cells, residual blocks, detection
/// necks) are authored as DAGs; `GraphPlanner` slices them at articulation
/// points and may spread independent branches over processors.  Chains are
/// the degenerate single-path case: `from_chain` lifts a legacy `Model`,
/// and `linearize` lowers back to the chain form (a topological order in
/// which every branch's layers stay contiguous with their merge point).
class GraphModel {
 public:
  explicit GraphModel(std::string name) : name_(std::move(name)) {}

  /// Lift a linear chain model: node i consumes node i-1.  The degenerate
  /// case every legacy entry point maps to; `linearize()` round-trips it.
  [[nodiscard]] static GraphModel from_chain(const Model& model);

  /// Add an operator depending on the given producer nodes; returns its id.
  /// Dependencies must refer to already-added nodes (ids are topological by
  /// construction, which keeps the graph acyclic by construction too).
  std::size_t add(Layer layer, std::vector<std::size_t> inputs = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t id) const { return nodes_[id].layer; }
  [[nodiscard]] const std::vector<std::size_t>& inputs(std::size_t id) const {
    return nodes_[id].inputs;
  }

  /// Kahn topological order, breaking ties toward the most-recently enabled
  /// node so branch bodies stay contiguous (depth-first-flavoured).
  [[nodiscard]] std::vector<std::size_t> topological_order() const;

  /// True when every dependency points backwards (always holds for graphs
  /// built through add(); guards hand-patched graphs).
  [[nodiscard]] bool is_valid_dag() const;

  /// True when the graph is exactly a chain: node i's only input is node
  /// i-1 in topological order.  Chain graphs plan byte-identically to the
  /// legacy `Model` path.
  [[nodiscard]] bool is_chain() const;

  /// Full fork/join decomposition (topological order, articulation flags,
  /// segments with their branches).
  [[nodiscard]] GraphDecomposition decompose() const;

  /// Sum of all node FLOPs.
  [[nodiscard]] double total_flops() const;

  /// Structural fingerprint over the topology AND every layer's cost
  /// fields: two graphs with identical layer multisets but different edges
  /// hash differently (an Inception cell vs. its linearized chain).  For a
  /// chain graph this equals `Model::content_hash()` of the linearization.
  [[nodiscard]] std::uint64_t topology_hash() const;

  /// Linearize into the chain Model the legacy pipeline planner consumes.
  [[nodiscard]] Model linearize() const;

 private:
  struct Node {
    Layer layer;
    std::vector<std::size_t> inputs;
  };
  std::string name_;
  std::vector<Node> nodes_;
};

}  // namespace h2p
