#include "sim/chrome_trace.h"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace h2p {
namespace {

void emit_escaped(std::ostringstream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default: out << c;
    }
  }
}

/// Processor-row metadata + one 'X' event per simulated task, all on `pid`.
void emit_device_events(std::ostringstream& out, const Timeline& timeline,
                        const Soc& soc, const exec::CompiledPlan* compiled,
                        bool& first, int pid) {
  // Thread-name metadata so chrome://tracing labels rows by processor.
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << p
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << soc.processor(p).name << " (" << to_string(soc.processor(p).kind)
        << ")\"}}";
  }

  for (const TaskRecord& t : timeline.tasks) {
    if (!first) out << ",";
    first = false;
    const exec::ScheduledSlice* slice =
        compiled ? compiled->find(t.model_idx, t.seq_in_model) : nullptr;
    out << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << t.proc_idx
        << ",\"name\":\"";
    if (slice != nullptr && t.model_idx < compiled->model_names.size()) {
      out << compiled->model_names[t.model_idx] << ".s" << t.seq_in_model;
    } else {
      out << "m" << t.model_idx << ".s" << t.seq_in_model;
    }
    // Timestamps in microseconds per the trace-event spec.
    out << "\",\"ts\":" << t.start_ms * 1000.0
        << ",\"dur\":" << t.duration_ms() * 1000.0
        << ",\"args\":{\"solo_ms\":" << t.solo_ms
        << ",\"contention_ms\":" << t.contention_ms();
    if (slice != nullptr) {
      out << ",\"layers\":\"[" << slice->layers.begin << "," << slice->layers.end
          << ")\",\"exec_ms\":" << slice->exec_ms
          << ",\"boundary_copy_ms\":" << slice->boundary_copy_ms
          << ",\"dram_bytes\":" << slice->dram_bytes
          << ",\"sensitivity\":" << slice->sensitivity
          << ",\"intensity\":" << slice->intensity;
    }
    out << "}}";
  }
}

void emit_trace(std::ostringstream& out, const Timeline& timeline,
                const Soc& soc, const exec::CompiledPlan* compiled) {
  out << "{\"traceEvents\":[";
  bool first = true;
  emit_device_events(out, timeline, soc, compiled, first, /*pid=*/1);
  out << "],\"displayTimeUnit\":\"ms\"}";
}

void emit_arg(std::ostringstream& out, const obs::TraceArg& arg) {
  out << "\"";
  emit_escaped(out, arg.key);
  out << "\":";
  if (arg.is_number) {
    out << arg.number;
  } else {
    out << "\"";
    emit_escaped(out, arg.text);
    out << "\"";
  }
}

void emit_host_events(std::ostringstream& out, const obs::Tracer& tracer,
                      bool& first, int pid) {
  const auto names = tracer.track_names();
  const std::vector<obs::TraceEvent> events = tracer.events();

  // Row labels: explicit names from name_current_thread, generic otherwise.
  std::set<std::uint32_t> tracks;
  for (const obs::TraceEvent& ev : events) tracks.insert(ev.track);
  for (const auto& [track, name] : names) tracks.insert(track);
  for (const std::uint32_t track : tracks) {
    if (!first) out << ",";
    first = false;
    const auto it = names.find(track);
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    emit_escaped(out, it != names.end()
                          ? it->second
                          : "host-thread-" + std::to_string(track));
    out << "\"}}";
  }

  for (const obs::TraceEvent& ev : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"" << (ev.instant ? "i" : "X") << "\",\"pid\":" << pid
        << ",\"tid\":" << ev.track << ",\"name\":\"";
    emit_escaped(out, ev.name);
    out << "\",\"ts\":" << ev.start_us;
    if (ev.instant) {
      out << ",\"s\":\"t\"";
    } else {
      out << ",\"dur\":" << ev.dur_us;
    }
    out << ",\"args\":{";
    for (std::size_t i = 0; i < ev.args.size(); ++i) {
      if (i) out << ",";
      emit_arg(out, ev.args[i]);
    }
    out << "}}";
  }
}

}  // namespace

std::string to_chrome_trace_json(const Timeline& timeline, const Soc& soc) {
  std::ostringstream out;
  emit_trace(out, timeline, soc, nullptr);
  return out.str();
}

std::string to_chrome_trace_json(const Timeline& timeline, const Soc& soc,
                                 const exec::CompiledPlan& compiled) {
  std::ostringstream out;
  emit_trace(out, timeline, soc, &compiled);
  return out.str();
}

void write_chrome_trace(const Timeline& timeline, const Soc& soc,
                        const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("write_chrome_trace: cannot open " + path);
  file << to_chrome_trace_json(timeline, soc);
}

std::string to_merged_chrome_trace_json(const Timeline& timeline,
                                        const Soc& soc,
                                        const obs::Tracer& tracer) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  // Process labels make the clock split explicit in the Perfetto UI.
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"device (modeled time)\"}}";
  first = false;
  out << ",{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
         "\"args\":{\"name\":\"host (wall clock)\"}}";
  emit_device_events(out, timeline, soc, nullptr, first, /*pid=*/1);
  emit_host_events(out, tracer, first, /*pid=*/2);
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

}  // namespace h2p
