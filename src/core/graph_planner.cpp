#include "core/graph_planner.h"

#include <algorithm>
#include <limits>

#include "core/incremental.h"
#include "core/partition.h"
#include "obs/trace.h"
#include "sim/pipeline_sim.h"

namespace h2p {
namespace {

std::vector<Model> linearize_all(const std::vector<const GraphModel*>& graphs) {
  std::vector<Model> models;
  models.reserve(graphs.size());
  for (const GraphModel* g : graphs) models.push_back(g->linearize());
  return models;
}

std::vector<const Model*> model_pointers(const std::vector<Model>& models) {
  std::vector<const Model*> ptrs;
  ptrs.reserve(models.size());
  for (const Model& m : models) ptrs.push_back(&m);
  return ptrs;
}

/// One schedulable range of a slot before global dep wiring: layers
/// [begin, end) of the linearized model on `proc`.
struct Proto {
  std::size_t proc = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// A slot's schedule as an ordered list of groups: every member of group g
/// depends on every member of group g-1 (chain groups have one member;
/// parallel groups hold co-running branches).
using SlotGroups = std::vector<std::vector<Proto>>;

/// Branch stage cost on processor q: execution plus the inbound cut copy
/// (charged exactly like lower_range, i.e. only when the range does not
/// start the model).
double range_cost(const CostTable& t, std::size_t q, std::size_t lo,
                  std::size_t hi) {
  double c = t.exec_ms(q, lo, hi - 1);
  if (lo > 0) c += t.boundary_copy_ms(q, lo);
  return c;
}

}  // namespace

GraphPlanner::GraphPlanner(const Soc& soc, std::vector<const GraphModel*> graphs,
                           PlannerOptions opts)
    : graphs_(std::move(graphs)),
      linearized_(linearize_all(graphs_)),
      model_ptrs_(model_pointers(linearized_)),
      opts_(opts),
      eval_(soc, model_ptrs_),
      chain_planner_(eval_, opts) {}

GraphPlannerReport GraphPlanner::plan() const {
  obs::Span span("graph_planner.plan");
  span.arg("graphs", static_cast<double>(graphs_.size()));

  GraphPlannerReport rep;
  rep.chain_report = chain_planner_.plan();
  exec::CompiledPlan chain = exec::compile(rep.chain_report.plan, eval_);
  const std::size_t K = chain.num_stages;

  const auto des_ms = [this](const exec::CompiledPlan& plan) {
    return simulate(eval_.soc(), plan).makespan_ms();
  };

  // Per-slot chain slices in seq order (global indices into chain.slices).
  std::vector<std::vector<std::size_t>> chain_by_slot(chain.num_models);
  for (std::size_t i = 0; i < chain.slices.size(); ++i) {
    chain_by_slot[chain.slices[i].model_idx].push_back(i);
  }

  // Build each slot's candidate group list.  Chain slots (and branchy slots
  // where no offload survives the static check) reproduce the chain
  // schedule verbatim.
  std::vector<SlotGroups> slot_groups(chain.num_models);
  std::vector<bool> slot_is_dag(chain.num_models, false);
  std::size_t offloaded = 0;

  for (std::size_t slot = 0; slot < chain.num_models; ++slot) {
    const std::size_t idx = chain.original_index[slot];
    const GraphModel& graph = *graphs_[idx];
    const CostTable& table = eval_.table(idx);
    const std::size_t n = linearized_[idx].num_layers();

    SlotGroups chain_groups;
    for (const std::size_t gi : chain_by_slot[slot]) {
      const exec::ScheduledSlice& s = chain.slices[gi];
      chain_groups.push_back({Proto{s.proc_idx, s.layers.begin, s.layers.end}});
    }

    if (graph.is_chain() || n == 0) {
      slot_groups[slot] = std::move(chain_groups);
      continue;
    }

    // Re-slice the slot with Algorithm 1 restricted to the boundaries right
    // after articulation nodes, so no stage straddles a fork/join segment.
    const GraphDecomposition d = graph.decompose();
    std::vector<std::size_t> legal;
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (d.articulation[pos]) legal.push_back(pos + 1);
    }
    const PartitionResult part =
        partition_minmax_restricted(stage_cost_fn(table), n, K, legal);

    SlotGroups groups;
    std::size_t slot_offloads = 0;
    for (std::size_t k = 0; k < part.slices.size(); ++k) {
      const Slice sl = part.slices[k];
      if (sl.empty()) continue;
      const std::size_t home = k;

      std::size_t cursor = sl.begin;
      for (const GraphDecomposition::Segment& seg : d.segments) {
        if (seg.branches.size() < 2) continue;
        const std::size_t ilo = seg.branches.front().front();
        const std::size_t ihi =
            seg.join_pos < d.order.size() ? seg.join_pos : d.order.size();
        if (ilo < sl.begin || ihi > sl.end || ilo < cursor) continue;
        // Branch bodies must be contiguous position runs (the LIFO
        // topological order keeps them so; guard hand-built graphs).
        bool contiguous = true;
        for (const std::vector<std::size_t>& b : seg.branches) {
          if (b.back() - b.front() + 1 != b.size()) contiguous = false;
        }
        if (!contiguous) continue;

        // Affinity assignment: LPT list scheduling over per-processor
        // loads.  The heaviest branch (by home-stage cost) anchors the home
        // processor; remaining branches, heaviest first, each go to the
        // processor minimizing load + own cost *on that processor* — so a
        // branch is offloaded to a slower processor exactly when co-running
        // there beats queueing behind the home stage.  Ties break to the
        // lowest index: deterministic.
        const std::size_t nb = seg.branches.size();
        std::vector<double> home_ms(nb);
        std::vector<std::size_t> by_weight(nb);
        for (std::size_t b = 0; b < nb; ++b) {
          const auto& br = seg.branches[b];
          home_ms[b] = range_cost(table, home, br.front(), br.back() + 1);
          by_weight[b] = b;
        }
        std::sort(by_weight.begin(), by_weight.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (home_ms[a] != home_ms[b]) return home_ms[a] > home_ms[b];
                    return a < b;
                  });
        std::vector<std::size_t> assign(nb, home);
        std::vector<double> load(K, 0.0);
        load[home] = home_ms[by_weight.front()];
        for (std::size_t w = 1; w < nb; ++w) {
          const std::size_t b = by_weight[w];
          const auto& br = seg.branches[b];
          std::size_t best_q = home;
          double best_finish = load[home] + home_ms[b];
          for (std::size_t q = 0; q < K; ++q) {
            if (q == home) continue;
            const double finish =
                load[q] + range_cost(table, q, br.front(), br.back() + 1);
            if (finish < best_finish - 1e-12) {
              best_finish = finish;
              best_q = q;
            }
          }
          assign[b] = best_q;
          load[best_q] = best_finish;
        }
        bool any_off = false;
        for (const std::size_t a : assign) any_off = any_off || a != home;
        if (!any_off) continue;

        // Static fork/join arbitration: do the co-running branches beat the
        // *contiguous* home-stage run of the same layers?  (Not per-branch
        // serial slices — the chain never pays per-branch copy-ins, so that
        // baseline would flatter the split.)
        std::vector<exec::ScheduledSlice> split;
        for (std::size_t b = 0; b < seg.branches.size(); ++b) {
          const auto& br = seg.branches[b];
          split.push_back(exec::lower_range(eval_, idx, slot, 0, assign[b],
                                            br.front(), br.back() + 1));
        }
        const double split_ms =
            fork_join_wavefront_ms(eval_.contention(), split);
        const double serial_ms = range_cost(table, home, ilo, ihi);
        if (!(split_ms + 1e-9 < serial_ms)) continue;

        // Accepted: chain prefix up to the fork, then the parallel group.
        if (cursor < ilo) groups.push_back({Proto{home, cursor, ilo}});
        std::vector<Proto> par;
        for (std::size_t b = 0; b < seg.branches.size(); ++b) {
          const auto& br = seg.branches[b];
          par.push_back(Proto{assign[b], br.front(), br.back() + 1});
          if (assign[b] != home) ++slot_offloads;
        }
        groups.push_back(std::move(par));
        cursor = ihi;
      }
      if (cursor < sl.end) groups.push_back({Proto{home, cursor, sl.end}});
    }

    if (slot_offloads == 0) {
      slot_groups[slot] = std::move(chain_groups);
    } else {
      slot_groups[slot] = std::move(groups);
      slot_is_dag[slot] = true;
      offloaded += slot_offloads;
    }
  }

  if (offloaded == 0) {
    rep.compiled = std::move(chain);
    rep.chain_des_ms = rep.final_des_ms = des_ms(rep.compiled);
    return rep;
  }

  // Assemble the fork/join candidate: slot-major, groups in order, every
  // member of a group depending on every member of the previous group.
  exec::CompiledPlan cand;
  cand.num_stages = K;
  cand.num_models = chain.num_models;
  cand.original_index = chain.original_index;
  cand.model_names = chain.model_names;
  cand.resident_bytes.assign(chain.num_models, 0.0);
  for (std::size_t slot = 0; slot < chain.num_models; ++slot) {
    std::vector<std::size_t> prev_group;
    std::size_t seq = 0;
    for (const std::vector<Proto>& group : slot_groups[slot]) {
      std::vector<std::size_t> cur_group;
      for (const Proto& p : group) {
        exec::ScheduledSlice s = exec::lower_range(
            eval_, cand.original_index[slot], slot, seq, p.proc, p.begin, p.end);
        s.deps = prev_group;
        cur_group.push_back(cand.slices.size());
        cand.slices.push_back(std::move(s));
      }
      prev_group = std::move(cur_group);
      ++seq;
    }
    // Footprint: merged occupied range per stage, like CompiledPlanBuilder.
    ModelPlan mp;
    mp.model_index = cand.original_index[slot];
    mp.slices.assign(K, Slice{0, 0});
    for (const std::vector<Proto>& group : slot_groups[slot]) {
      for (const Proto& p : group) {
        Slice& cell = mp.slices[p.proc];
        if (cell.empty()) {
          cell = Slice{p.begin, p.end};
        } else {
          cell.begin = std::min(cell.begin, p.begin);
          cell.end = std::max(cell.end, p.end);
        }
      }
    }
    cand.resident_bytes[slot] = eval_.resident_bytes(mp);
  }

  // One whole-window DES each way; the fork/join plan must not be worse.
  rep.chain_des_ms = des_ms(chain);
  rep.final_des_ms = des_ms(cand);
  if (rep.final_des_ms <= rep.chain_des_ms + 1e-9) {
    rep.compiled = std::move(cand);
    rep.dag_accepted = true;
    rep.offloaded_branches = offloaded;
    for (std::size_t slot = 0; slot < slot_is_dag.size(); ++slot) {
      if (slot_is_dag[slot]) rep.dag_slots.push_back(slot);
    }
    obs::Tracer::global().instant("graph_planner.dag_accepted");
  } else {
    rep.compiled = std::move(chain);
    rep.final_des_ms = rep.chain_des_ms;
  }
  span.arg("offloaded", static_cast<double>(rep.offloaded_branches));
  return rep;
}

}  // namespace h2p
