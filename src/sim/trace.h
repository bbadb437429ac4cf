#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace h2p {

/// One executed task (a model slice) in a simulated timeline.
struct TaskRecord {
  std::size_t model_idx = 0;     // slot in the executed sequence
  std::size_t seq_in_model = 0;  // position in the model's slice chain
  std::size_t proc_idx = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double solo_ms = 0.0;  // what the task would have taken uncontended

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
  /// Time lost to co-execution slowdown.
  [[nodiscard]] double contention_ms() const { return duration_ms() - solo_ms; }
};

/// Full execution trace of one simulated run.
struct Timeline {
  std::vector<TaskRecord> tasks;
  std::size_t num_procs = 0;
  std::size_t num_models = 0;

  [[nodiscard]] double makespan_ms() const;
  /// Completed inferences per second (the paper's Fig-7 throughput metric).
  [[nodiscard]] double throughput_per_s() const;
  /// Completion time of one model (max end over its tasks).
  [[nodiscard]] double model_finish_ms(std::size_t model_idx) const;
  /// Every model's completion time in one pass over the tasks: entry k
  /// equals model_finish_ms(k) bit for bit (0.0 for a model with no
  /// tasks).  Covers num_models and every model a task names.
  [[nodiscard]] std::vector<double> model_finish_times() const;
  /// Measured idle time on a processor between its first and last task.
  [[nodiscard]] double proc_idle_ms(std::size_t proc_idx) const;
  /// Sum of proc_idle_ms over processors — the measured pipeline bubbles.
  [[nodiscard]] double total_bubble_ms() const;
  /// Busy / (busy + idle) utilization per processor.
  [[nodiscard]] std::vector<double> utilization() const;
  /// Total time lost to co-execution slowdown across tasks.
  [[nodiscard]] double total_contention_ms() const;

  /// ASCII Gantt chart (one row per processor), for examples and debugging.
  [[nodiscard]] std::string gantt(const std::vector<std::string>& proc_names,
                                  std::size_t width = 96) const;
};

}  // namespace h2p
