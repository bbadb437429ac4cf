#pragma once

#include "core/plan.h"
#include "models/graph.h"
#include "sim/trace.h"
#include "soc/soc.h"
#include "util/json.h"

namespace h2p {

/// JSON round-tripping for the tooling surface (CLI, saved plans, custom
/// device descriptions).  Formats are stable and human-editable.

Json soc_to_json(const Soc& soc);
/// Parses a device description; throws std::runtime_error, naming the
/// processor or mem state and the field, on missing or ill-typed fields,
/// an empty "processors" list, a "batch_capacity" that is not a positive
/// integer, a rate, bandwidth or memory size that is not finite and
/// positive, or a cache size, latency or power that is negative or
/// non-finite.
Soc soc_from_json(const Json& j);

Json plan_to_json(const PipelinePlan& plan);
PipelinePlan plan_from_json(const Json& j);

/// DAG model wire format: `{"name": ..., "nodes": [{"name", "kind",
/// "flops", "param_bytes", "input_bytes", "output_bytes",
/// "working_set_bytes", "locality", "inputs": [node indices]}, ...]}`.
/// Node order in the array is the node-id order; `inputs` reference earlier
/// array positions.  `graph_from_json` validates that the result is a DAG
/// and throws std::runtime_error on unknown layer kinds, inputs that are
/// not integer indices of earlier nodes, or cycles.  Round-trip is exact:
/// the reparsed graph has the same `topology_hash()`.
Json graph_to_json(const GraphModel& graph);
GraphModel graph_from_json(const Json& j);

/// One-way: timelines are results, not inputs.
Json timeline_to_json(const Timeline& timeline);

}  // namespace h2p
