#pragma once

#include <string>

#include "exec/compiled_plan.h"
#include "obs/trace.h"
#include "sim/trace.h"
#include "soc/soc.h"

namespace h2p {

/// Serialize a timeline as a Chrome tracing / Perfetto JSON document
/// (chrome://tracing "trace event format", complete 'X' events).  Each
/// processor is a tid; each slice is an event named "<slot>:<stage>" with
/// solo-vs-contended timing in its args.
std::string to_chrome_trace_json(const Timeline& timeline, const Soc& soc);

/// Enriched variant: cross-references each task with its compiled slice and
/// annotates events with the model name, layer range, boundary-copy split,
/// DRAM bytes and contention sensitivity/intensity.
std::string to_chrome_trace_json(const Timeline& timeline, const Soc& soc,
                                 const exec::CompiledPlan& compiled);

/// Write the JSON to a file; throws std::runtime_error on I/O failure.
void write_chrome_trace(const Timeline& timeline, const Soc& soc,
                        const std::string& path);

/// Merged export: the DES timeline (pid 1, "device (modeled time)", one tid
/// per processor) side by side with the host span tracer (pid 2,
/// "host (wall clock)", one tid per recorded host thread — planner phases,
/// plan-cache decisions, online-loop window steps, pool jobs).  One
/// Perfetto-loadable file replaces the previously disconnected DES-only
/// trace and ad-hoc planner prints.  The two processes run on independent
/// clocks (modeled stream ms vs. host wall ms); Perfetto renders them as
/// separate process groups.
std::string to_merged_chrome_trace_json(const Timeline& timeline,
                                        const Soc& soc,
                                        const obs::Tracer& tracer);

}  // namespace h2p
