#include "core/serialize.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace h2p {
namespace {

const char* proc_kind_name(ProcKind k) { return to_string(k); }

ProcKind proc_kind_from(const std::string& s) {
  for (ProcKind k : {ProcKind::kNpu, ProcKind::kCpuBig, ProcKind::kGpu,
                     ProcKind::kCpuSmall, ProcKind::kDesktopGpu}) {
    if (s == to_string(k)) return k;
  }
  throw std::runtime_error("soc_from_json: unknown processor kind " + s);
}

/// A numeric field that must be finite and > 0 (>= 0 with `zero_ok`).
double soc_number(const Json& obj, const char* field, const std::string& where,
                  bool zero_ok = false) {
  const double x = obj.at(field).as_number();
  if (!std::isfinite(x) || x < 0.0 || (x == 0.0 && !zero_ok)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", x);
    throw std::runtime_error(where + ": \"" + field + "\" must be a finite " +
                             (zero_ok ? "non-negative" : "positive") +
                             " number, got " + buf);
  }
  return x;
}

}  // namespace

Json soc_to_json(const Soc& soc) {
  Json j = Json::object();
  j["name"] = Json::string(soc.name());
  j["bus_bw_gbps"] = Json::number(soc.bus_bw_gbps());
  j["mem_capacity_bytes"] = Json::number(soc.mem_capacity_bytes());
  j["available_bytes"] = Json::number(soc.available_bytes());

  Json procs = Json::array();
  for (const Processor& p : soc.processors()) {
    Json pj = Json::object();
    pj["name"] = Json::string(p.name);
    pj["kind"] = Json::string(proc_kind_name(p.kind));
    pj["peak_gflops"] = Json::number(p.peak_gflops);
    pj["mem_bw_gbps"] = Json::number(p.mem_bw_gbps);
    pj["l2_bytes"] = Json::number(p.l2_bytes);
    pj["launch_overhead_ms"] = Json::number(p.launch_overhead_ms);
    pj["batch_capacity"] = Json::number(p.batch_capacity);
    pj["copy_in_latency_ms"] = Json::number(p.copy_in_latency_ms);
    pj["tdp_watts"] = Json::number(p.tdp_watts);
    procs.push_back(std::move(pj));
  }
  j["processors"] = std::move(procs);

  Json states = Json::array();
  for (const MemFreqState& s : soc.mem_states()) {
    Json sj = Json::object();
    sj["mhz"] = Json::number(s.mhz);
    sj["bw_gbps"] = Json::number(s.bw_gbps);
    states.push_back(std::move(sj));
  }
  j["mem_states"] = std::move(states);
  return j;
}

Soc soc_from_json(const Json& j) {
  std::vector<Processor> procs;
  const Json& pj = j.at("processors");
  if (pj.size() == 0) {
    throw std::runtime_error("soc_from_json: \"processors\" must not be empty");
  }
  for (std::size_t i = 0; i < pj.size(); ++i) {
    const Json& p = pj.at(i);
    const std::string where = "soc_from_json: processor " + std::to_string(i);
    Processor proc;
    proc.name = p.at("name").as_string();
    proc.kind = proc_kind_from(p.at("kind").as_string());
    proc.peak_gflops = soc_number(p, "peak_gflops", where);
    proc.mem_bw_gbps = soc_number(p, "mem_bw_gbps", where);
    proc.l2_bytes = soc_number(p, "l2_bytes", where, true);
    proc.launch_overhead_ms = soc_number(p, "launch_overhead_ms", where, true);
    proc.batch_capacity = static_cast<int>(json_index(
        p.at("batch_capacity"), 2147483648.0, where, "batch_capacity"));
    if (proc.batch_capacity == 0) {
      throw std::runtime_error(where + ": \"batch_capacity\" must be positive");
    }
    proc.copy_in_latency_ms = soc_number(p, "copy_in_latency_ms", where, true);
    proc.tdp_watts = soc_number(p, "tdp_watts", where, true);
    procs.push_back(std::move(proc));
  }

  std::vector<MemFreqState> states;
  const Json& sj = j.at("mem_states");
  for (std::size_t i = 0; i < sj.size(); ++i) {
    const std::string where = "soc_from_json: mem_state " + std::to_string(i);
    states.push_back(MemFreqState{soc_number(sj.at(i), "mhz", where),
                                  soc_number(sj.at(i), "bw_gbps", where)});
  }

  const std::string where = "soc_from_json";
  return Soc(j.at("name").as_string(), std::move(procs),
             soc_number(j, "bus_bw_gbps", where),
             soc_number(j, "mem_capacity_bytes", where),
             soc_number(j, "available_bytes", where), std::move(states));
}

Json plan_to_json(const PipelinePlan& plan) {
  Json j = Json::object();
  j["num_stages"] = Json::number(static_cast<double>(plan.num_stages));
  Json models = Json::array();
  for (const ModelPlan& mp : plan.models) {
    Json mj = Json::object();
    mj["model_index"] = Json::number(static_cast<double>(mp.model_index));
    mj["high_contention"] = Json::boolean(mp.high_contention);
    Json slices = Json::array();
    for (const Slice& s : mp.slices) {
      Json sj = Json::array();
      sj.push_back(Json::number(static_cast<double>(s.begin)));
      sj.push_back(Json::number(static_cast<double>(s.end)));
      slices.push_back(std::move(sj));
    }
    mj["slices"] = std::move(slices);
    models.push_back(std::move(mj));
  }
  j["models"] = std::move(models);
  return j;
}

PipelinePlan plan_from_json(const Json& j) {
  // Indices land in 32-bit task-table columns downstream.
  constexpr double kLimit = 4294967296.0;
  PipelinePlan plan;
  plan.num_stages = json_index(j.at("num_stages"), kLimit, "plan_from_json",
                               "num_stages");
  const Json& models = j.at("models");
  for (std::size_t i = 0; i < models.size(); ++i) {
    const Json& mj = models.at(i);
    const std::string where = "plan_from_json: model " + std::to_string(i);
    ModelPlan mp;
    mp.model_index = json_index(mj.at("model_index"), kLimit, where, "model_index");
    mp.high_contention = mj.at("high_contention").as_bool();
    const Json& slices = mj.at("slices");
    for (std::size_t k = 0; k < slices.size(); ++k) {
      mp.slices.push_back(Slice{json_index(slices.at(k).at(0), kLimit, where, "slices"),
                                json_index(slices.at(k).at(1), kLimit, where, "slices")});
    }
    if (mp.slices.size() != plan.num_stages) {
      throw std::runtime_error("plan_from_json: slice count != num_stages");
    }
    plan.models.push_back(std::move(mp));
  }
  return plan;
}

Json graph_to_json(const GraphModel& graph) {
  Json j = Json::object();
  j["name"] = Json::string(graph.name());
  Json nodes = Json::array();
  for (std::size_t id = 0; id < graph.num_nodes(); ++id) {
    const Layer& l = graph.layer(id);
    Json nj = Json::object();
    nj["name"] = Json::string(l.name);
    nj["kind"] = Json::string(to_string(l.kind));
    nj["flops"] = Json::number(l.flops);
    nj["param_bytes"] = Json::number(l.param_bytes);
    nj["input_bytes"] = Json::number(l.input_bytes);
    nj["output_bytes"] = Json::number(l.output_bytes);
    nj["working_set_bytes"] = Json::number(l.working_set_bytes);
    nj["locality"] = Json::number(l.locality);
    Json inputs = Json::array();
    for (const std::size_t in : graph.inputs(id)) {
      inputs.push_back(Json::number(static_cast<double>(in)));
    }
    nj["inputs"] = std::move(inputs);
    nodes.push_back(std::move(nj));
  }
  j["nodes"] = std::move(nodes);
  return j;
}

GraphModel graph_from_json(const Json& j) {
  GraphModel graph(j.at("name").as_string());
  const Json& nodes = j.at("nodes");
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const Json& nj = nodes.at(id);
    Layer l;
    l.name = nj.at("name").as_string();
    if (!layer_kind_from_string(nj.at("kind").as_string(), &l.kind)) {
      throw std::runtime_error("graph_from_json: unknown layer kind " +
                               nj.at("kind").as_string());
    }
    l.flops = nj.at("flops").as_number();
    l.param_bytes = nj.at("param_bytes").as_number();
    l.input_bytes = nj.at("input_bytes").as_number();
    l.output_bytes = nj.at("output_bytes").as_number();
    l.working_set_bytes = nj.at("working_set_bytes").as_number();
    l.locality = nj.at("locality").as_number();
    const Json& inputs = nj.at("inputs");
    std::vector<std::size_t> ins;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ins.push_back(json_index(inputs.at(k), static_cast<double>(id),
                               "graph_from_json: node " + std::to_string(id),
                               "inputs"));
    }
    graph.add(std::move(l), std::move(ins));
  }
  if (!graph.is_valid_dag()) {
    throw std::runtime_error("graph_from_json: not a DAG");
  }
  return graph;
}

Json timeline_to_json(const Timeline& timeline) {
  Json j = Json::object();
  j["num_procs"] = Json::number(static_cast<double>(timeline.num_procs));
  j["num_models"] = Json::number(static_cast<double>(timeline.num_models));
  j["makespan_ms"] = Json::number(timeline.makespan_ms());
  j["throughput_per_s"] = Json::number(timeline.throughput_per_s());
  j["total_bubble_ms"] = Json::number(timeline.total_bubble_ms());
  Json tasks = Json::array();
  for (const TaskRecord& t : timeline.tasks) {
    Json tj = Json::object();
    tj["model"] = Json::number(static_cast<double>(t.model_idx));
    tj["seq"] = Json::number(static_cast<double>(t.seq_in_model));
    tj["proc"] = Json::number(static_cast<double>(t.proc_idx));
    tj["start_ms"] = Json::number(t.start_ms);
    tj["end_ms"] = Json::number(t.end_ms);
    tj["solo_ms"] = Json::number(t.solo_ms);
    tasks.push_back(std::move(tj));
  }
  j["tasks"] = std::move(tasks);
  return j;
}

}  // namespace h2p
