#pragma once

#include <cstddef>

namespace h2p::obs {

/// One executed slice's predicted-vs-executed times.  "Predicted" is what
/// the window's arbitrating DES promised when the plan was chosen
/// (window-isolated, fault-free, offset to the window's release);
/// "executed" is what the final streaming timeline in `run_online`
/// delivered.  `proc` is the planned processor; `migrated` says the slice
/// ran on another one.
struct SliceRecord {
  std::size_t window = 0;
  std::size_t model_idx = 0;
  std::size_t seq_in_model = 0;
  std::size_t proc = 0;
  double predicted_start_ms = 0.0;
  double predicted_finish_ms = 0.0;
  double executed_start_ms = 0.0;
  double executed_finish_ms = 0.0;
  bool migrated = false;
};

}  // namespace h2p::obs
