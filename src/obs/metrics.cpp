#include "obs/metrics.h"

#include <algorithm>
#include <thread>

namespace h2p::obs {
namespace {

/// Summary reconstructed from fixed-bucket state: percentiles interpolated
/// inside the bucket containing the rank (first bucket from 0 or the
/// observed min when tighter, overflow pinned to the observed max).
/// `counts` has bounds.size() + 1 entries.
Summary summary_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts,
                             std::uint64_t count, double sum, double min,
                             double max) {
  Summary s;
  s.count = count;
  if (s.count == 0) return s;
  s.mean = sum / static_cast<double>(s.count);
  const double mn = min;
  const double mx = max;
  s.min = mn;
  s.max = mx;

  const auto pct = [&](double q) {
    const double rank = q * static_cast<double>(s.count);
    double below = 0.0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      const double here = static_cast<double>(counts[b]);
      if (below + here >= rank && here > 0.0) {
        if (b == counts.size() - 1) return mx;
        const double hi = bounds[b];
        double lo = b == 0 ? std::min(0.0, mn) : bounds[b - 1];
        lo = std::max(lo, mn);
        const double frac = std::clamp((rank - below) / here, 0.0, 1.0);
        return std::clamp(lo + (hi - lo) * frac, mn, mx);
      }
      below += here;
    }
    return mx;
  };
  s.p50 = pct(0.50);
  s.p90 = pct(0.90);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  // stddev is not recoverable from (count, sum, buckets); left 0.
  return s;
}

}  // namespace

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::CounterShard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

Histogram::Histogram(const Registry* owner)
    : owner_(owner),
      bounds_(Registry::default_latency_buckets()),
      num_buckets_(bounds_.size() + 1),
      buckets_(detail::kShards * num_buckets_) {}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Scalars& s : scalars_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Scalars& s : scalars_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(num_buckets_, 0);
  for (std::size_t shard = 0; shard < detail::kShards; ++shard) {
    for (std::size_t b = 0; b < num_buckets_; ++b) {
      out[b] += buckets_[shard * num_buckets_ + b].v.load(
          std::memory_order_relaxed);
    }
  }
  return out;
}

Summary Histogram::summary() const {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const Scalars& sc : scalars_) {
    mn = std::min(mn, sc.min.load(std::memory_order_relaxed));
    mx = std::max(mx, sc.max.load(std::memory_order_relaxed));
  }
  return summary_from_buckets(bounds_, bucket_counts(), count(), sum(), mn,
                              mx);
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

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(this)))
             .first;
  }
  return *it->second;
}

std::vector<double> Registry::default_latency_buckets() {
  std::vector<double> bounds;
  for (double b = 0.001; b <= 8192.0; b *= 2.0) bounds.push_back(b);
  return bounds;
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

  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    entry["summary"] = summary_to_json(h->summary());
    Json buckets = Json::array();
    const std::vector<std::uint64_t> counts = h->bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      Json bucket = Json::object();
      // The overflow bucket has no finite bound; serialize it as null.
      bucket["le"] = b < h->bounds().size() ? Json::number(h->bounds()[b])
                                            : Json();
      bucket["count"] = Json::number(static_cast<double>(counts[b]));
      buckets.push_back(std::move(bucket));
    }
    entry["buckets"] = std::move(buckets);
    histograms[name] = std::move(entry);
  }
  out["histograms"] = std::move(histograms);
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    for (detail::CounterShard& s : c->shards_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, h] : histograms_) {
    for (detail::CounterShard& s : h->buckets_) {
      s.v.store(0, std::memory_order_relaxed);
    }
    for (Histogram::Scalars& s : h->scalars_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0.0, std::memory_order_relaxed);
      s.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      s.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
    }
  }
}

ScopedLatency::ScopedLatency(Histogram& h) {
  if (!h.owner_->enabled()) return;
  h_ = &h;
  t0_ = std::chrono::steady_clock::now();
}

ScopedLatency::~ScopedLatency() {
  if (h_ == nullptr) return;
  const double ms = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count() /
                    1.0e6;
  h_->observe(ms);
}

}  // namespace h2p::obs
