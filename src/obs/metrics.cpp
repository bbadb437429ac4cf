#include "obs/metrics.h"

#include <thread>

namespace h2p::obs {

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::CounterShard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(this)))
             .first;
  }
  return *it->second;
}

Json host_info_json() {
  Json host = Json::object();
  host["cpus"] =
      Json::number(static_cast<double>(std::thread::hardware_concurrency()));
  return host;
}

Json Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::object();
  out["host"] = host_info_json();

  Json counters = Json::object();
  for (const auto& [name, c] : counters_) {
    counters[name] = Json::number(static_cast<double>(c->value()));
  }
  out["counters"] = std::move(counters);
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    for (detail::CounterShard& s : c->shards_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace h2p::obs
