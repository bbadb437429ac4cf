#include "core/plan.h"

#include <sstream>

namespace h2p {

bool ModelPlan::covers(std::size_t num_layers) const {
  std::size_t cursor = 0;
  for (const Slice& s : slices) {
    if (s.end < s.begin) return false;
    if (s.empty()) continue;
    if (s.begin != cursor) return false;
    cursor = s.end;
  }
  return cursor == num_layers;
}

std::string PipelinePlan::to_string() const {
  std::ostringstream out;
  out << "PipelinePlan{K=" << num_stages << "}\n";
  for (std::size_t i = 0; i < models.size(); ++i) {
    const ModelPlan& mp = models[i];
    out << "  slot " << i << " <- request " << mp.model_index
        << (mp.high_contention ? " [H]" : " [L]") << " :";
    for (std::size_t k = 0; k < mp.slices.size(); ++k) {
      const Slice& s = mp.slices[k];
      if (s.empty()) {
        out << " -";
      } else {
        out << " [" << s.begin << "," << s.end << ")";
      }
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace h2p
