#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace h2p {

double Timeline::makespan_ms() const {
  double end = 0.0;
  for (const TaskRecord& t : tasks) end = std::max(end, t.end_ms);
  return end;
}

double Timeline::throughput_per_s() const {
  const double ms = makespan_ms();
  if (ms <= 0.0) return 0.0;
  return static_cast<double>(num_models) / (ms / 1000.0);
}

double Timeline::model_finish_ms(std::size_t model_idx) const {
  double end = 0.0;
  for (const TaskRecord& t : tasks) {
    if (t.model_idx == model_idx) end = std::max(end, t.end_ms);
  }
  return end;
}

std::vector<double> Timeline::model_finish_times() const {
  std::size_t models = num_models;
  for (const TaskRecord& t : tasks) models = std::max(models, t.model_idx + 1);
  std::vector<double> finish(models, 0.0);
  for (const TaskRecord& t : tasks) {
    finish[t.model_idx] = std::max(finish[t.model_idx], t.end_ms);
  }
  return finish;
}

double Timeline::proc_idle_ms(std::size_t proc_idx) const {
  std::vector<const TaskRecord*> mine;
  for (const TaskRecord& t : tasks) {
    if (t.proc_idx == proc_idx) mine.push_back(&t);
  }
  if (mine.empty()) return 0.0;
  std::sort(mine.begin(), mine.end(), [](const TaskRecord* a, const TaskRecord* b) {
    return a->start_ms < b->start_ms;
  });
  double idle = 0.0;
  double cursor = mine.front()->start_ms;
  for (const TaskRecord* t : mine) {
    if (t->start_ms > cursor) idle += t->start_ms - cursor;
    cursor = std::max(cursor, t->end_ms);
  }
  return idle;
}

double Timeline::total_bubble_ms() const {
  double total = 0.0;
  for (std::size_t p = 0; p < num_procs; ++p) total += proc_idle_ms(p);
  return total;
}

std::vector<double> Timeline::utilization() const {
  std::vector<double> busy(num_procs, 0.0);
  for (const TaskRecord& t : tasks) {
    if (t.proc_idx < num_procs) busy[t.proc_idx] += t.duration_ms();
  }
  const double span = makespan_ms();
  std::vector<double> util(num_procs, 0.0);
  if (span <= 0.0) return util;
  for (std::size_t p = 0; p < num_procs; ++p) util[p] = busy[p] / span;
  return util;
}

double Timeline::total_contention_ms() const {
  double total = 0.0;
  for (const TaskRecord& t : tasks) total += std::max(0.0, t.contention_ms());
  return total;
}

std::string Timeline::gantt(const std::vector<std::string>& proc_names,
                            std::size_t width) const {
  const double span = makespan_ms();
  std::ostringstream out;
  if (span <= 0.0) return "(empty timeline)\n";
  const double ms_per_col = span / static_cast<double>(width);

  std::size_t label_w = 0;
  for (const auto& n : proc_names) label_w = std::max(label_w, n.size());

  for (std::size_t p = 0; p < num_procs; ++p) {
    std::string row(width, '.');
    for (const TaskRecord& t : tasks) {
      if (t.proc_idx != p) continue;
      const auto c0 = static_cast<std::size_t>(t.start_ms / ms_per_col);
      auto c1 = static_cast<std::size_t>(t.end_ms / ms_per_col);
      c1 = std::min(c1, width - 1);
      const char glyph = static_cast<char>('0' + (t.model_idx % 10));
      for (std::size_t c = c0; c <= c1 && c < width; ++c) row[c] = glyph;
    }
    const std::string label = p < proc_names.size() ? proc_names[p] : "?";
    out << label << std::string(label_w - label.size() + 1, ' ') << '|' << row << "|\n";
  }
  out << "(digits = request slot mod 10; '.' = idle; span = " << span << " ms)\n";
  return out.str();
}

}  // namespace h2p
