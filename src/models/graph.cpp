#include "models/graph.h"

#include <algorithm>
#include <stdexcept>

namespace h2p {

GraphModel GraphModel::from_chain(const Model& model) {
  GraphModel g(model.name());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    if (i == 0) {
      g.add(model.layer(i));
    } else {
      g.add(model.layer(i), {i - 1});
    }
  }
  return g;
}

std::size_t GraphModel::add(Layer layer, std::vector<std::size_t> inputs) {
  for (std::size_t dep : inputs) {
    if (dep >= nodes_.size()) {
      throw std::out_of_range("GraphModel::add: dependency on unknown node");
    }
  }
  nodes_.push_back(Node{std::move(layer), std::move(inputs)});
  return nodes_.size() - 1;
}

bool GraphModel::is_valid_dag() const {
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    for (std::size_t dep : nodes_[id].inputs) {
      if (dep >= id) return false;
    }
  }
  return true;
}

std::vector<std::size_t> GraphModel::topological_order() const {
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> consumers(n);
  for (std::size_t id = 0; id < n; ++id) {
    indegree[id] = nodes_[id].inputs.size();
    for (std::size_t dep : nodes_[id].inputs) consumers[dep].push_back(id);
  }

  // LIFO ready stack: after a node finishes, its newly enabled consumers
  // are visited next, keeping each branch contiguous in the output.
  std::vector<std::size_t> ready;
  for (std::size_t id = n; id-- > 0;) {
    if (indegree[id] == 0) ready.push_back(id);
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (std::size_t c : consumers[id]) {
      if (--indegree[c] == 0) ready.push_back(c);
    }
  }
  if (order.size() != n) {
    throw std::runtime_error("GraphModel::topological_order: graph has a cycle");
  }
  return order;
}

bool GraphModel::is_chain() const {
  if (nodes_.empty()) return true;
  const std::vector<std::size_t> order = topological_order();
  if (!nodes_[order[0]].inputs.empty()) return false;
  for (std::size_t pos = 1; pos < order.size(); ++pos) {
    const std::vector<std::size_t>& in = nodes_[order[pos]].inputs;
    if (in.size() != 1 || in[0] != order[pos - 1]) return false;
  }
  return true;
}

GraphDecomposition GraphModel::decompose() const {
  GraphDecomposition d;
  const std::size_t n = nodes_.size();
  d.order = topological_order();
  d.position.assign(n, 0);
  for (std::size_t pos = 0; pos < n; ++pos) d.position[d.order[pos]] = pos;

  // cross(i) = #edges (u, v) with pos(u) < i < pos(v); position i is an
  // articulation point iff cross(i) == 0.  Sweep with a difference array:
  // each edge contributes +1 over positions [pos(u)+1, pos(v)-1].
  std::vector<long long> diff(n + 1, 0);
  for (std::size_t id = 0; id < n; ++id) {
    const std::size_t pv = d.position[id];
    for (std::size_t dep : nodes_[id].inputs) {
      const std::size_t pu = d.position[dep];
      if (pu + 1 < pv) {
        ++diff[pu + 1];
        --diff[pv];
      }
    }
  }
  d.articulation.assign(n, false);
  long long cross = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    cross += diff[pos];
    d.articulation[pos] = cross == 0;
  }

  // Segments between consecutive articulation positions with a non-empty
  // interior; interior nodes group into branches by weak connectivity.
  std::vector<std::size_t> artic;
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (d.articulation[pos]) artic.push_back(pos);
  }
  // Interior is the half-open position range [lo, join_pos); for a real
  // fork node, lo == fork_pos + 1.  A multi-source head has no fork node:
  // fork_pos is meaningless there and lo starts at 0.
  auto emit_segment = [&](std::size_t fork_pos, std::size_t lo,
                          std::size_t join_pos) {
    if (lo >= join_pos) return;
    GraphDecomposition::Segment seg;
    seg.fork_pos = fork_pos;
    seg.join_pos = join_pos;
    // Union-find over interior positions, merged along interior edges.
    std::vector<std::size_t> parent(join_pos - lo);
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    auto find = [&](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (std::size_t pos = lo; pos < join_pos; ++pos) {
      for (std::size_t dep : nodes_[d.order[pos]].inputs) {
        const std::size_t pd = d.position[dep];
        if (pd >= lo && pd < join_pos) {
          parent[find(pos - lo)] = find(pd - lo);
        }
      }
    }
    std::vector<std::vector<std::size_t>> by_root(parent.size());
    for (std::size_t pos = lo; pos < join_pos; ++pos) {
      by_root[find(pos - lo)].push_back(pos);
    }
    for (std::vector<std::size_t>& branch : by_root) {
      if (!branch.empty()) seg.branches.push_back(std::move(branch));
    }
    std::sort(seg.branches.begin(), seg.branches.end(),
              [](const auto& a, const auto& b) { return a.front() < b.front(); });
    d.segments.push_back(std::move(seg));
  };

  std::size_t prev = 0;
  bool have_prev = false;
  for (std::size_t pos : artic) {
    if (have_prev) {
      emit_segment(prev, prev + 1, pos);
    } else if (pos > 0) {
      // Multi-source head: the graph forks before its first articulation
      // point; branches start at position 0 with no fork node.
      emit_segment(pos, 0, pos);
    }
    prev = pos;
    have_prev = true;
  }
  if (n > 0) {
    if (!have_prev) {
      emit_segment(n, 0, n);  // no articulation point at all
    } else if (prev + 1 < n) {
      emit_segment(prev, prev + 1, n);  // trailing multi-sink fork
    }
  }
  return d;
}

double GraphModel::total_flops() const {
  double total = 0.0;
  for (const Node& node : nodes_) total += node.layer.flops;
  return total;
}

std::uint64_t GraphModel::topology_hash() const {
  // Record stream matching Model::content_hash for a linear graph: per node
  // in topological order, the layer fields, then the input count, then the
  // inputs as topological positions in ascending order.
  const std::vector<std::size_t> order = topological_order();
  std::vector<std::size_t> position(nodes_.size(), 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) position[order[pos]] = pos;

  std::uint64_t h = kHashSeed;
  for (std::size_t id : order) {
    h = layer_hash(nodes_[id].layer, h);
    std::vector<std::size_t> in_pos;
    in_pos.reserve(nodes_[id].inputs.size());
    for (std::size_t dep : nodes_[id].inputs) in_pos.push_back(position[dep]);
    std::sort(in_pos.begin(), in_pos.end());
    h = hash_mix(h, static_cast<std::uint64_t>(in_pos.size()));
    for (std::size_t p : in_pos) h = hash_mix(h, static_cast<std::uint64_t>(p));
  }
  return hash_mix(h, static_cast<std::uint64_t>(nodes_.size()));
}

Model GraphModel::linearize() const {
  if (!is_valid_dag()) {
    throw std::runtime_error("GraphModel::linearize: not a valid DAG");
  }
  std::vector<Layer> chain;
  chain.reserve(nodes_.size());
  for (std::size_t id : topological_order()) chain.push_back(nodes_[id].layer);
  return Model(name_, std::move(chain));
}

}  // namespace h2p
