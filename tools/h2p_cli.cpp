// h2p_cli — command-line front end for the Hetero2Pipe library.
//
//   h2p_cli socs [--export <name>]          list / dump device descriptions
//   h2p_cli models                          list the model zoo
//   h2p_cli plan --models a,b,c [options]   plan + simulate a sequence
//        options: --graphs a,b        plan DAG models instead of (or next
//                                     to) --models: each entry is a zoo
//                                     graph name (inception_cell,
//                                     two_head_neck) or a path to a
//                                     graph JSON file (core/serialize
//                                     graph_to_json format); branchy
//                                     graphs may fork across processors
//                 --soc <kirin990|snapdragon778g|snapdragon870>
//                 --soc-json <file>   load a custom device description
//                 --no-ct             disable contention mitigation + tail opt
//                 --out <file>        write the plan as JSON
//                 --trace <file>      write a chrome://tracing timeline
//   h2p_cli simulate --plan <file> --models a,b,c [--soc <name>]
//   h2p_cli compare --models a,b,c [--soc <name>]   all schemes side by side
//   h2p_cli online --models a,b,c [options]   online serving loop (JSON out)
//        options: --window <n>        requests per replanning window (def. 4)
//                 --period <ms>       inter-arrival gap of the stream (def. 5)
//                 --repeat <r>        repeat the model list r times (def. 1)
//                 --async             prefetch cold plans on a worker pool
//                 --prefetch <n>      async lookahead depth (default 2)
//                 --threads <n>       prefetch pool size (default 2; only
//                                     with --async)
//                 --warm-start        near-miss warm-start replanning
//                 --no-cache          disable the plan cache
//                 --faults <f.json>   scripted processor faults (see
//                                     sim/fault_injector.h for the schema)
//                 --fault-seed <n>    sample a deterministic random fault
//                                     script instead (ignored with --faults)
//                 --weather           sample correlated fault weather
//                                     (thermal storms, background bursts,
//                                     driver cascades) on top of --faults /
//                                     --fault-seed; seeded + replayable
//                 --weather-seed <n>  weather sampling seed (default 1)
//                 --faults-out <f>    write the effective fault script
//                                     (events + weather) as JSON; feeding
//                                     it back via --faults replays the run
//                 --thermal-loop      close the thermal loop: live per-
//                 processor RC models drive the plan bucket w/ hysteresis
//                 --thermal-scale <x> accelerated thermal aging factor
//                                     (default 5000; the RC constants are
//                                     tens of seconds, streams are ms)
//                 --deadline <ms>     per-request deadline: arrival + ms
//                 --deadline-policy <none|shed|defer>   admission control
//                 plus --soc/--soc-json/--no-ct as for `plan`
//        telemetry (plan and online):
//                 --metrics-out <f>   write the obs::Registry snapshot JSON
//                 --trace-out <f>     write ONE merged Perfetto/chrome-trace
//                                     file: DES processor rows (modeled
//                                     time) + host spans (planner phases,
//                                     cache decisions, window steps)
//                 --log-level <l>     debug|info|warn|error|off (def. warn)
//                 --log-out <f>       JSONL event log file (def. stderr)
//
// Every plan runs on one thread; `online --async` adds the prefetch pool.
// Integer flag values must be whole decimal numbers: positive, except the
// seeds (--fault-seed, --weather-seed), which may be 0.  A flag the
// subcommand does not take, a malformed value, SoC name or input file, or
// an output file that cannot be written exits 1 with a message naming it.
// A missing required flag exits 2 with the usage line.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/band.h"
#include "baselines/mnn_serial.h"
#include "baselines/pipeit.h"
#include "core/graph_planner.h"
#include "core/planner.h"
#include "core/serialize.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/chrome_trace.h"
#include "sim/online.h"
#include "sim/pipeline_sim.h"
#include "util/json.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace h2p;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: h2p_cli "
               "<socs|models|plan|simulate|compare|online> "
               "[options]\n"
               "see the header of tools/h2p_cli.cpp for details\n");
  return 2;
}

std::optional<std::string> arg_value(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Integer flag, parsed strictly: absent → `fallback`; present → the whole
/// value must be a decimal integer of type T, and > 0 when `positive`.
/// Anything else throws std::invalid_argument naming the flag, which main
/// reports with exit status 1.
template <typename T>
T int_arg(int argc, char** argv, const char* flag, T fallback, bool positive) {
  const auto text = arg_value(argc, argv, flag);
  if (!text) return fallback;
  T value{};
  const char* end = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), end, value);
  if (text->empty() || ec != std::errc() || ptr != end ||
      (positive && value <= 0)) {
    throw std::invalid_argument(
        std::string(flag) + ": expected a " +
        (positive ? "positive" : "non-negative") + " integer, got \"" +
        *text + "\"");
  }
  return value;
}

long positive_arg(int argc, char** argv, const char* flag, long fallback) {
  return int_arg<long>(argc, argv, flag, fallback, true);
}

std::uint64_t seed_arg(int argc, char** argv, const char* flag,
                       std::uint64_t fallback) {
  return int_arg<std::uint64_t>(argc, argv, flag, fallback, false);
}

/// The flags each subcommand takes; a trailing '=' marks one that takes a
/// value.
const std::map<std::string_view, std::vector<std::string_view>> kCommandFlags = {
    {"socs", {"--export="}},
    {"models", {}},
    {"plan",
     {"--models=", "--graphs=", "--soc=", "--soc-json=", "--no-ct", "--out=",
      "--trace=", "--metrics-out=", "--trace-out=", "--log-level=", "--log-out="}},
    {"simulate", {"--plan=", "--models=", "--soc=", "--soc-json="}},
    {"compare", {"--models=", "--soc=", "--soc-json="}},
    {"online",
     {"--models=", "--soc=", "--soc-json=", "--no-ct", "--window=", "--period=",
      "--repeat=", "--async", "--prefetch=", "--threads=", "--warm-start",
      "--no-cache", "--faults=", "--fault-seed=", "--weather", "--weather-seed=",
      "--faults-out=", "--thermal-loop", "--thermal-scale=", "--deadline=",
      "--deadline-policy=", "--metrics-out=", "--trace-out=", "--log-level=",
      "--log-out="}},
};

/// The first `--flag` in argv that `accepted` does not list, if any.
std::optional<std::string> unknown_flag(const std::vector<std::string_view>& accepted,
                                        int argc, char** argv) {
  const auto listed = [&](const std::string& f) {
    return std::find(accepted.begin(), accepted.end(), f) != accepted.end();
  };
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) continue;
    if (listed(arg + "=")) {
      ++i;  // skip the value
    } else if (!listed(arg)) {
      return arg;
    }
  }
  return std::nullopt;
}

/// Telemetry flags shared by `plan` and `online`.  Returns false (after
/// printing a diagnostic) for an invalid --log-level.  The registry is
/// enabled + reset unconditionally for `online` (its JSON output reads
/// counters back); the tracer only when a trace file was asked for.
struct ObsFlags {
  std::optional<std::string> metrics_out;
  std::optional<std::string> trace_out;
};

bool setup_obs(int argc, char** argv, ObsFlags* flags) {
  flags->metrics_out = arg_value(argc, argv, "--metrics-out");
  flags->trace_out = arg_value(argc, argv, "--trace-out");
  if (flags->trace_out) {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  if (const auto level = arg_value(argc, argv, "--log-level")) {
    const auto parsed = obs::parse_log_level(*level);
    if (!parsed) {
      std::fprintf(stderr, "unknown log level: %s\n", level->c_str());
      return false;
    }
    obs::Log::global().set_level(*parsed);
  }
  if (const auto path = arg_value(argc, argv, "--log-out")) {
    try {
      obs::Log::global().set_sink_file(*path);
    } catch (const std::runtime_error&) {
      throw std::runtime_error("--log-out: cannot write \"" + *path + "\"");
    }
  }
  return true;
}

/// Writes `text` to the file `path` given with `flag`; a file that cannot
/// be opened or written throws, naming the flag.
void write_output(const char* flag, const std::string& path,
                  const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  if (!f) {
    throw std::runtime_error(std::string(flag) + ": cannot write \"" + path +
                             "\"");
  }
}

/// A built-in SoC by name; an unknown name throws, naming `flag`.
Soc builtin_soc(const std::string& name, const char* flag) {
  if (name == "kirin990") return Soc::kirin990();
  if (name == "snapdragon778g") return Soc::snapdragon778g();
  if (name == "snapdragon870") return Soc::snapdragon870();
  throw std::invalid_argument(std::string(flag) + ": unknown SoC \"" + name + "\"");
}

/// The SoC a subcommand plans on: --soc-json, else --soc, else kirin990.
/// A file that cannot be opened or parsed, or an unknown name, throws.
Soc resolve_soc(int argc, char** argv) {
  if (const auto file = arg_value(argc, argv, "--soc-json")) {
    std::ifstream in(*file);
    if (!in) {
      throw std::invalid_argument("--soc-json: cannot open \"" + *file + "\"");
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return soc_from_json(Json::parse(buf.str()));
  }
  return builtin_soc(arg_value(argc, argv, "--soc").value_or("kirin990"), "--soc");
}

std::optional<std::vector<ModelId>> parse_models(const std::string& csv) {
  std::vector<ModelId> ids;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    bool found = false;
    for (ModelId id : extended_model_ids()) {
      std::string lower = to_string(id);
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower == token) {
        ids.push_back(id);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown model: %s\n", token.c_str());
      return std::nullopt;
    }
  }
  if (ids.empty()) {
    std::fprintf(stderr, "no models given\n");
    return std::nullopt;
  }
  return ids;
}

/// Each CSV entry is a zoo graph name or a path to a graph JSON file.
std::optional<std::vector<GraphModel>> parse_graphs(const std::string& csv) {
  std::vector<GraphModel> graphs;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    bool found = false;
    for (GraphId id : all_graph_ids()) {
      if (token == to_string(id)) {
        graphs.push_back(zoo_graph(id));
        found = true;
        break;
      }
    }
    if (found) continue;
    if (token.ends_with(".json")) {
      std::ifstream f(token);
      if (!f) {
        std::fprintf(stderr, "cannot open graph file: %s\n", token.c_str());
        return std::nullopt;
      }
      std::stringstream buf;
      buf << f.rdbuf();
      try {
        graphs.push_back(graph_from_json(Json::parse(buf.str())));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad graph file %s: %s\n", token.c_str(), e.what());
        return std::nullopt;
      }
      continue;
    }
    std::fprintf(stderr, "unknown graph: %s\n", token.c_str());
    return std::nullopt;
  }
  if (graphs.empty()) {
    std::fprintf(stderr, "no graphs given\n");
    return std::nullopt;
  }
  return graphs;
}

int cmd_socs(int argc, char** argv) {
  if (const auto name = arg_value(argc, argv, "--export")) {
    std::printf("%s\n", soc_to_json(builtin_soc(*name, "--export")).dump().c_str());
    return 0;
  }
  Table table({"Name", "Processors", "Bus (GB/s)", "Free mem (GiB)"});
  for (const char* name : {"kirin990", "snapdragon778g", "snapdragon870"}) {
    const Soc soc = builtin_soc(name, "--soc");
    std::string procs;
    for (const Processor& p : soc.processors()) {
      procs += std::string(to_string(p.kind)) + " ";
    }
    table.add_row({name, procs, Table::fmt(soc.bus_bw_gbps(), 0),
                   Table::fmt(soc.available_bytes() / (1 << 30), 1)});
  }
  table.print();
  return 0;
}

int cmd_models() {
  Table table({"Model", "Layers", "GFLOPs", "Params (MB)", "NPU", "Size class"});
  for (ModelId id : extended_model_ids()) {
    const Model& m = zoo_model(id);
    table.add_row({to_string(id), std::to_string(m.num_layers()),
                   Table::fmt(m.total_flops() / 1e9, 2),
                   Table::fmt(m.total_param_bytes() / 1048576.0, 1),
                   m.fully_npu_supported() ? "native" : "fallback",
                   to_string(size_class(id))});
  }
  table.print();

  Table graphs({"Graph", "Nodes", "GFLOPs", "Branch segments"});
  for (GraphId id : all_graph_ids()) {
    const GraphModel& g = zoo_graph(id);
    std::size_t branchy = 0;
    for (const auto& seg : g.decompose().segments) {
      if (seg.branches.size() >= 2) ++branchy;
    }
    graphs.add_row({to_string(id), std::to_string(g.num_nodes()),
                    Table::fmt(g.total_flops() / 1e9, 2),
                    std::to_string(branchy)});
  }
  std::printf("\n");
  graphs.print();
  return 0;
}

int cmd_plan(int argc, char** argv) {
  const auto models_csv = arg_value(argc, argv, "--models");
  const auto graphs_csv = arg_value(argc, argv, "--graphs");
  if (!models_csv && !graphs_csv) return usage();
  const Soc soc = resolve_soc(argc, argv);
  std::optional<std::vector<ModelId>> ids;
  if (models_csv) {
    ids = parse_models(*models_csv);
    if (!ids) return 1;
  }

  ObsFlags obs_flags;
  if (!setup_obs(argc, argv, &obs_flags)) return 1;
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(true);
  if (obs_flags.trace_out) obs::Tracer::global().name_current_thread("planner");

  const PlannerOptions opts =
      has_flag(argc, argv, "--no-ct") ? PlannerOptions::no_ct() : PlannerOptions{};

  // Both paths end here: the plan, its gantt and summary lines, then every
  // requested output.  `dag` is the DAG path's report, null on the chain path.
  const auto report_plan = [&](const PipelinePlan& plan,
                               const exec::CompiledPlan& compiled,
                               const Timeline& timeline,
                               const GraphPlannerReport* dag) {
    std::printf("%s\n", plan.to_string().c_str());
    std::vector<std::string> names;
    for (const Processor& p : soc.processors()) names.push_back(p.name);
    std::printf("%s\n", timeline.gantt(names).c_str());
    if (dag != nullptr) {
      std::printf(
          "dag: %s | offloaded branches %zu | DES chain %.2f ms -> final "
          "%.2f ms\n",
          dag->dag_accepted ? "accepted" : "chain fallback",
          dag->offloaded_branches, dag->chain_des_ms, dag->final_des_ms);
    }
    std::printf("makespan %.2f ms | throughput %.2f inf/s | bubbles %.2f ms\n",
                timeline.makespan_ms(), timeline.throughput_per_s(),
                timeline.total_bubble_ms());
    double peak_resident = 0.0;
    for (double b : compiled.resident_bytes) peak_resident += b;
    std::printf("compiled: %zu slices | %.2f ms total solo | %.0f MB resident\n",
                compiled.slices.size(), compiled.total_solo_ms(),
                peak_resident / 1048576.0);

    if (const auto out = arg_value(argc, argv, "--out")) {
      write_output("--out", *out, plan_to_json(plan).dump());
      std::printf("%s written to %s\n", dag ? "chain plan" : "plan",
                  out->c_str());
    }
    if (const auto trace = arg_value(argc, argv, "--trace")) {
      write_output("--trace", *trace, to_chrome_trace_json(timeline, soc, compiled));
      std::printf("chrome trace written to %s\n", trace->c_str());
    }
    if (obs_flags.trace_out) {
      write_output("--trace-out", *obs_flags.trace_out,
                   to_merged_chrome_trace_json(timeline, soc, obs::Tracer::global()));
      std::printf("merged trace written to %s\n", obs_flags.trace_out->c_str());
    }
    if (obs_flags.metrics_out) {
      write_output("--metrics-out", *obs_flags.metrics_out,
                   obs::Registry::global().snapshot().dump());
      std::printf("metrics written to %s\n", obs_flags.metrics_out->c_str());
    }
    return 0;
  };

  if (graphs_csv) {
    // DAG path: zoo models (if any) ride along as chain graphs.
    auto parsed = parse_graphs(*graphs_csv);
    if (!parsed) return 1;
    std::vector<GraphModel> owned;
    if (ids) {
      for (ModelId id : *ids) owned.push_back(GraphModel::from_chain(zoo_model(id)));
    }
    for (GraphModel& g : *parsed) owned.push_back(std::move(g));
    std::vector<const GraphModel*> gptrs;
    for (const GraphModel& g : owned) gptrs.push_back(&g);

    const GraphPlanner planner(soc, gptrs, opts);
    const GraphPlannerReport rep = planner.plan();
    return report_plan(rep.chain_report.plan, rep.compiled,
                       simulate(planner.evaluator().soc(), rep.compiled), &rep);
  }

  std::vector<const Model*> models;
  for (ModelId id : *ids) models.push_back(&zoo_model(id));
  const StaticEvaluator eval(soc, models);
  const PlannerReport report = Hetero2PipePlanner(eval, opts).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, eval);
  return report_plan(report.plan, compiled, simulate(eval.soc(), compiled),
                     nullptr);
}

int cmd_simulate(int argc, char** argv) {
  const auto plan_file = arg_value(argc, argv, "--plan");
  const auto models_csv = arg_value(argc, argv, "--models");
  if (!plan_file || !models_csv) return usage();
  const Soc soc = resolve_soc(argc, argv);
  const auto ids = parse_models(*models_csv);
  if (!ids) return 1;

  std::ifstream in(*plan_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", plan_file->c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const PipelinePlan plan = plan_from_json(Json::parse(buf.str()));

  std::vector<const Model*> models;
  for (ModelId id : *ids) models.push_back(&zoo_model(id));
  const StaticEvaluator eval(soc, models);
  try {
    const exec::CompiledPlan compiled = exec::compile(plan, eval);
    const Timeline timeline = simulate(eval.soc(), compiled);
    std::printf("%s\n", timeline_to_json(timeline).dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan does not fit the given models/soc: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_compare(int argc, char** argv) {
  const auto models_csv = arg_value(argc, argv, "--models");
  if (!models_csv) return usage();
  const Soc soc = resolve_soc(argc, argv);
  const auto ids = parse_models(*models_csv);
  if (!ids) return 1;

  std::vector<const Model*> models;
  for (ModelId id : *ids) models.push_back(&zoo_model(id));
  const StaticEvaluator eval(soc, models);

  Table table({"Scheme", "Latency (ms)", "Throughput (inf/s)"});
  auto add = [&](const char* name, const Timeline& t) {
    table.add_row({name, Table::fmt(t.makespan_ms(), 1),
                   Table::fmt(t.throughput_per_s(), 2)});
  };
  add("MNN (serial CPU_B)", run_mnn_serial(eval));
  add("Pipe-it", run_pipeit(eval));
  add("Band", run_band(eval));
  const PlannerReport no_ct =
      Hetero2PipePlanner(eval, PlannerOptions::no_ct()).plan();
  add("Hetero2Pipe (No C/T)", simulate_plan(no_ct.plan, eval));
  const PlannerReport full = Hetero2PipePlanner(eval).plan();
  add("Hetero2Pipe", simulate_plan(full.plan, eval));
  table.print();
  return 0;
}

const char* window_source_name(WindowSource s) {
  switch (s) {
    case WindowSource::kCacheHit: return "cache_hit";
    case WindowSource::kWarmReplan: return "warm_replan";
    case WindowSource::kColdReplan: return "cold_replan";
    case WindowSource::kDegradedReplan: return "degraded_replan";
  }
  return "?";
}

int cmd_online(int argc, char** argv) {
  const auto models_csv = arg_value(argc, argv, "--models");
  if (!models_csv) return usage();
  const Soc soc = resolve_soc(argc, argv);
  const auto ids = parse_models(*models_csv);
  if (!ids) return 1;

  ObsFlags obs_flags;
  if (!setup_obs(argc, argv, &obs_flags)) return 1;
  // Counters stay on unconditionally: the plan_cache block of the JSON
  // below reads them back from the registry.
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(true);
  if (obs_flags.trace_out) {
    obs::Tracer::global().name_current_thread("online-loop");
  }

  const long repeat = positive_arg(argc, argv, "--repeat", 1);
  const double period =
      static_cast<double>(positive_arg(argc, argv, "--period", 5));
  const long deadline = positive_arg(argc, argv, "--deadline", 0);
  std::vector<OnlineRequest> stream;
  for (long r = 0; r < repeat; ++r) {
    for (ModelId id : *ids) {
      OnlineRequest req;
      req.model = &zoo_model(id);
      req.arrival_ms = static_cast<double>(stream.size()) * period;
      if (deadline > 0) {
        req.deadline_ms = req.arrival_ms + static_cast<double>(deadline);
      }
      stream.push_back(req);
    }
  }

  // Fault environment: a scripted JSON file, or a seed-sampled script —
  // optionally with correlated weather sampled on top (--weather).
  FaultScript faults;
  bool with_faults = false;
  if (const auto file = arg_value(argc, argv, "--faults")) {
    std::ifstream in(*file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file->c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const Json json = Json::parse(buf.str());
    faults = fault_script_from_json(json);
    // The parser validated every entry; report a processor this SoC lacks
    // by the event's position in the file, not in the sorted script.
    const Json& events = json.at("events");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Json& e = events.at(i);
      if (e.at("kind").as_string() == "bus_degrade" || !e.contains("proc")) {
        continue;
      }
      const auto proc = static_cast<std::size_t>(e.at("proc").as_number());
      if (proc >= soc.num_processors()) {
        std::fprintf(
            stderr, "--faults: event %zu names processor %zu, but %s has %zu\n",
            i, proc, soc.name().c_str(), soc.num_processors());
        return 1;
      }
    }
    with_faults = true;
  } else if (arg_value(argc, argv, "--fault-seed")) {
    faults = FaultScript::sample(soc, seed_arg(argc, argv, "--fault-seed", 0));
    with_faults = true;
  }
  if (has_flag(argc, argv, "--weather")) {
    const std::uint64_t wseed = seed_arg(argc, argv, "--weather-seed", 1);
    // Sample over the stream's own span so the storms actually overlap the
    // serving run instead of landing after the last request.
    double horizon = 50.0;
    for (const OnlineRequest& req : stream) {
      horizon = std::max(horizon, req.arrival_ms + 50.0);
    }
    FaultSamplerOptions wopts;
    wopts.per_proc_faults = false;  // pure weather; base events come via
                                    // --faults / --fault-seed
    wopts.mean_weather_gap_ms = horizon / 4.0;
    wopts.mean_weather_duration_ms = horizon / 5.0;
    wopts.horizon_ms = horizon;
    const FaultScript weather = FaultScript::sample(soc, wseed, wopts);
    faults = FaultScript::with_weather(
        soc, std::vector<WeatherEvent>(weather.weather()),
        std::vector<FaultEvent>(faults.events()));
    with_faults = true;
  }
  if (const auto file = arg_value(argc, argv, "--faults-out")) {
    write_output("--faults-out", *file, fault_script_to_json(faults).dump());
  }

  // The prefetch pool exists only for --async, with exactly --threads
  // workers; every plan on the serving thread runs without one.
  const bool async = has_flag(argc, argv, "--async");
  if (!async && arg_value(argc, argv, "--threads")) {
    std::fprintf(stderr, "online: --threads requires --async\n");
    return 1;
  }
  const std::unique_ptr<ThreadPool> pool =
      async ? std::make_unique<ThreadPool>(static_cast<std::size_t>(
                  positive_arg(argc, argv, "--threads", 2)))
            : nullptr;
  OnlineOptions opts;
  opts.replan_window =
      static_cast<std::size_t>(positive_arg(argc, argv, "--window", 4));
  if (has_flag(argc, argv, "--no-ct")) opts.planner = PlannerOptions::no_ct();
  opts.use_plan_cache = !has_flag(argc, argv, "--no-cache");
  opts.pool = pool.get();
  opts.async_planning = async;
  opts.prefetch_depth =
      static_cast<std::size_t>(positive_arg(argc, argv, "--prefetch", 2));
  opts.warm_start = has_flag(argc, argv, "--warm-start");
  if (with_faults) opts.faults = &faults;
  if (has_flag(argc, argv, "--thermal-loop")) {
    opts.thermal_loop = true;
    opts.thermal.time_scale =
        static_cast<double>(positive_arg(argc, argv, "--thermal-scale", 5000));
  }
  if (const auto policy = arg_value(argc, argv, "--deadline-policy")) {
    if (*policy == "none") {
      opts.deadline_policy = DeadlinePolicy::kNone;
    } else if (*policy == "shed") {
      opts.deadline_policy = DeadlinePolicy::kShed;
    } else if (*policy == "defer") {
      opts.deadline_policy = DeadlinePolicy::kDefer;
    } else {
      std::fprintf(stderr, "unknown deadline policy: %s\n", policy->c_str());
      return 1;
    }
  }
  const OnlineResult result = run_online(soc, stream, opts);
  if (with_faults) {
    if (const auto violation =
            verify_timeline_against_faults(result.timeline, faults)) {
      std::fprintf(stderr, "FAULT SAFETY VIOLATION: %s\n", violation->c_str());
      return 1;
    }
  }

  Json out = Json::object();
  out["requests"] = Json::number(static_cast<double>(stream.size()));
  out["makespan_ms"] = Json::number(result.timeline.makespan_ms());
  out["throughput_per_s"] = Json::number(result.timeline.throughput_per_s());
  double total = 0.0;
  std::size_t executed = 0;
  for (const double c : result.completion_ms) {
    if (c >= 0.0) {
      total += c;
      ++executed;
    }
  }
  out["mean_completion_ms"] =
      Json::number(executed == 0 ? 0.0 : total / static_cast<double>(executed));
  out["replans"] = Json::number(result.replans);
  out["cold_replans"] =
      Json::number(result.replans - result.warm_hits - result.degraded_hits);
  out["warm_hits"] = Json::number(result.warm_hits);
  out["cache_hits"] = Json::number(result.cache_hits);
  out["degraded_replans"] = Json::number(result.degraded_hits);
  out["planning_hidden_ms"] = Json::number(result.planning_hidden_ms);
  out["planning_charged_ms"] = Json::number(result.planning_charged_ms);
  out["deadline_misses"] =
      Json::number(static_cast<double>(result.deadline_misses));
  out["shed_requests"] = Json::number(static_cast<double>(result.shed_requests));
  out["deferred_requests"] =
      Json::number(static_cast<double>(result.deferred_requests));
  out["bucket_transitions"] =
      Json::number(static_cast<double>(result.bucket_transitions));
  out["final_thermal_bucket"] =
      Json::number(static_cast<double>(result.final_thermal_bucket));
  out["weather_onsets"] =
      Json::number(static_cast<double>(result.weather_onsets));
  out["bus_degraded_windows"] =
      Json::number(static_cast<double>(result.bus_degraded_windows));
  Json dead = Json::array();
  for (std::size_t p = 0; p < result.declared_dead_ms.size(); ++p) {
    if (result.declared_dead_ms[p] >= 0.0) {
      Json d = Json::object();
      d["proc"] = Json::number(static_cast<double>(p));
      d["declared_dead_ms"] = Json::number(result.declared_dead_ms[p]);
      dead.push_back(std::move(d));
    }
  }
  out["declared_dead"] = std::move(dead);
  Json windows = Json::array();
  for (const WindowStats& ws : result.windows) {
    Json w = Json::object();
    w["source"] = Json::string(window_source_name(ws.source));
    w["arrival_ms"] = Json::number(ws.arrival_ms);
    w["release_ms"] = Json::number(ws.release_ms);
    w["planning_ms"] = Json::number(ws.planning_ms);
    w["hidden_ms"] = Json::number(ws.hidden_ms);
    w["charged_ms"] = Json::number(ws.charged_ms);
    if (with_faults) {
      w["avail_mask"] = Json::number(static_cast<double>(ws.avail_mask));
      w["backoff_wait_ms"] = Json::number(ws.backoff_wait_ms);
      w["bus_factor"] = Json::number(ws.bus_factor);
    }
    w["thermal_bucket"] = Json::number(static_cast<double>(ws.thermal_bucket));
    if (opts.deadline_policy != DeadlinePolicy::kNone) {
      w["shed"] = Json::number(static_cast<double>(ws.shed));
      w["deferred"] = Json::number(static_cast<double>(ws.deferred));
    }
    w["deadline_misses"] = Json::number(static_cast<double>(ws.deadline_misses));
    windows.push_back(std::move(w));
  }
  out["windows"] = std::move(windows);

  // Plan-cache counters come straight from the registry: the cache counts
  // its misses and evictions nowhere else, and counters count while spans
  // time (a test checks hits and warm hits against OnlineResult).
  {
    obs::Registry& reg = obs::Registry::global();
    Json pc = Json::object();
    pc["hits"] = Json::number(
        static_cast<double>(reg.counter("plan_cache.hits").value()));
    pc["misses"] = Json::number(
        static_cast<double>(reg.counter("plan_cache.misses").value()));
    pc["warm_hits"] = Json::number(
        static_cast<double>(reg.counter("plan_cache.warm_hits").value()));
    pc["evictions"] = Json::number(
        static_cast<double>(reg.counter("plan_cache.evictions").value()));
    out["plan_cache"] = std::move(pc);
  }

  if (obs_flags.trace_out) {
    write_output("--trace-out", *obs_flags.trace_out,
                 to_merged_chrome_trace_json(result.timeline, soc,
                                             obs::Tracer::global()));
  }
  if (obs_flags.metrics_out) {
    write_output("--metrics-out", *obs_flags.metrics_out,
                 obs::Registry::global().snapshot().dump());
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto accepted = kCommandFlags.find(cmd);
  if (accepted == kCommandFlags.end()) return usage();
  if (const auto flag = unknown_flag(accepted->second, argc - 2, argv + 2)) {
    std::fprintf(stderr, "%s: unknown flag %s\n", cmd.c_str(), flag->c_str());
    return 1;
  }
  // Bad input anywhere below (flag values, JSON files, fault scripts, plans)
  // surfaces as an exception: report it and exit 1 rather than abort.
  try {
    if (cmd == "socs") return cmd_socs(argc - 2, argv + 2);
    if (cmd == "models") return cmd_models();
    if (cmd == "plan") return cmd_plan(argc - 2, argv + 2);
    if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (cmd == "compare") return cmd_compare(argc - 2, argv + 2);
    if (cmd == "online") return cmd_online(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
