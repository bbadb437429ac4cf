#include "exec/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace h2p::exec {
namespace {

/// Multiset edit distance capped at "more than one": both tag lists are
/// sorted (make_key sorts), so a single merge pass counts the elements
/// unique to each side.
bool within_one_edit(const std::vector<PlanKey::ModelTag>& a,
                     const std::vector<PlanKey::ModelTag>& b) {
  std::size_t only_a = 0;
  std::size_t only_b = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      if (++only_a > 1) return false;
      ++i;
    } else {
      if (++only_b > 1) return false;
      ++j;
    }
  }
  only_a += a.size() - i;
  only_b += b.size() - j;
  return only_a <= 1 && only_b <= 1;
}

}  // namespace

bool PlanKey::near(const PlanKey& other) const {
  return env == other.env && options == other.options && soc == other.soc &&
         models != other.models && within_one_edit(models, other.models);
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const {
  // One xor-shift-add step per field (boost's hash_combine): every served
  // and prefetched window hashes its key several times.
  std::size_t h = std::hash<std::string>{}(key.soc);
  const auto mix = [&h](std::uint64_t v) {
    h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const PlanKey::ModelTag& m : key.models) mix(m.content_hash);
  const PlannerOptions& o = key.options;
  mix(static_cast<std::uint64_t>(o.contention_mitigation) |
      static_cast<std::uint64_t>(o.work_stealing) << 1 |
      static_cast<std::uint64_t>(o.tail_optimization) << 2);
  // -0.0 == 0.0, so both must hash alike.
  mix(std::bit_cast<std::uint64_t>(o.classifier_percentile == 0.0
                                        ? 0.0
                                        : o.classifier_percentile));
  mix(o.num_stages);
  mix(key.env.avail_mask);
  mix(key.env.thermal_bucket);
  return h;
}

PlanKey make_key(const Soc& soc, const std::vector<const Model*>& models,
                 const PlannerOptions& options, const PlanEnv& env) {
  if (std::isnan(options.classifier_percentile)) {
    throw std::invalid_argument("make_key: classifier_percentile is NaN");
  }
  PlanKey key{soc.fingerprint(), {}, options, env};
  key.models.reserve(models.size());
  for (const Model* m : models) {
    if (m == nullptr) throw std::invalid_argument("make_key: null model");
    key.models.push_back({m->name(), m->content_hash()});
  }
  std::sort(key.models.begin(), key.models.end());
  // Normalize the mask to the SoC's processor count so the all-ones default
  // and an explicit "everything healthy" mask produce identical keys.
  const std::size_t P = soc.num_processors();
  key.env.avail_mask &= P >= 64 ? ~0ull : ((1ull << P) - 1);
  return key;
}

const CompiledPlan* PlanCache::find(const PlanKey& key) {
  static obs::Counter& hits = obs::Registry::global().counter("plan_cache.hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("plan_cache.misses");
  const CompiledPlan* plan = entries_.find(key);
  if (plan == nullptr) {
    misses.inc();
    obs::Tracer::global().instant("plan_cache.miss");
    return nullptr;
  }
  hits.inc();
  obs::Tracer::global().instant("plan_cache.hit");
  return plan;
}

const CompiledPlan* PlanCache::find_near(const PlanKey& key) {
  const PlanKey* source = scan_near(key);
  if (source == nullptr) return nullptr;
  static obs::Counter& warm_hits =
      obs::Registry::global().counter("plan_cache.warm_hits");
  warm_hits.inc();
  obs::Tracer::global().instant("plan_cache.warm_hit");
  return entries_.find(*source);
}

const CompiledPlan* PlanCache::peek_near(const PlanKey& key) const {
  const PlanKey* source = scan_near(key);
  return source == nullptr ? nullptr : entries_.peek(*source);
}

const CompiledPlan& PlanCache::insert(const PlanKey& key, CompiledPlan plan) {
  if (entries_.insert(key, std::move(plan))) {
    static obs::Counter& evictions =
        obs::Registry::global().counter("plan_cache.evictions");
    evictions.inc();
  }
  return *entries_.peek(key);
}

}  // namespace h2p::exec
