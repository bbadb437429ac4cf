#include "exec/plan_cache.h"

#include <algorithm>
#include <charconv>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace h2p::exec {
namespace {

/// Multiset edit distance capped at "more than one": both name lists are
/// sorted (make_key sorts), so a single merge pass counts the elements
/// unique to each side.
bool within_one_edit(const std::vector<std::string_view>& a,
                     const std::vector<std::string_view>& b) {
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

/// Returns false for keys that did not come from make_key — the
/// fingerprint never contains "||" and the knob suffix is the last "||"
/// section, so the two outermost separators are unambiguous.
bool PlanCache::split_key(std::string_view key, KeyParts* out) {
  const std::size_t first = key.find("||");
  if (first == std::string_view::npos) return false;
  const std::size_t last = key.rfind("||");
  if (last == first) return false;
  out->soc = key.substr(0, first);
  out->knobs = key.substr(last + 2);
  std::string_view names = key.substr(first + 2, last - first - 2);
  out->names.clear();
  while (!names.empty()) {
    const std::size_t comma = names.find(',');
    if (comma == std::string_view::npos) return false;  // make_key always
    out->names.push_back(names.substr(0, comma));       // terminates with ','
    names.remove_prefix(comma + 1);
  }
  return true;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

const CompiledPlan* PlanCache::find(const std::string& key) {
  static obs::Counter& hits = obs::Registry::global().counter("plan_cache.hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("plan_cache.misses");
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses.inc();
    obs::Tracer::global().instant("plan_cache.miss");
    return nullptr;
  }
  hits.inc();
  obs::Tracer::global().instant("plan_cache.hit");
  entries_.splice(entries_.begin(), entries_, it->second);
  return &entries_.front().plan;
}

const CompiledPlan* PlanCache::peek(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second->plan;
}

std::list<PlanCache::Entry>::const_iterator PlanCache::scan_near(
    const std::string& key) const {
  KeyParts probe;
  if (!split_key(key, &probe)) return entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (!it->parsed || it->key == key) continue;  // exact match is find()'s job
    const KeyParts& cand = it->parts;
    if (cand.knobs != probe.knobs || cand.soc != probe.soc) continue;
    if (within_one_edit(cand.names, probe.names)) return it;
  }
  return entries_.end();
}

const CompiledPlan* PlanCache::find_near(const std::string& key) {
  const auto it = scan_near(key);
  if (it == entries_.end()) return nullptr;
  static obs::Counter& warm_hits =
      obs::Registry::global().counter("plan_cache.warm_hits");
  warm_hits.inc();
  obs::Tracer::global().instant("plan_cache.warm_hit");
  entries_.splice(entries_.begin(), entries_, it);
  return &entries_.front().plan;
}

const CompiledPlan* PlanCache::peek_near(const std::string& key) const {
  const auto it = scan_near(key);
  return it == entries_.end() ? nullptr : &it->plan;
}

bool PlanCache::near_miss(const std::string& a, const std::string& b) {
  if (a == b) return false;
  KeyParts pa;
  KeyParts pb;
  if (!split_key(a, &pa) || !split_key(b, &pb)) return false;
  if (pa.soc != pb.soc || pa.knobs != pb.knobs) return false;
  return within_one_edit(pa.names, pb.names);
}

const CompiledPlan& PlanCache::insert(const std::string& key, CompiledPlan plan) {
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->plan = std::move(plan);
    entries_.splice(entries_.begin(), entries_, it->second);
    return entries_.front().plan;
  }
  if (entries_.size() >= capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    static obs::Counter& evictions =
        obs::Registry::global().counter("plan_cache.evictions");
    evictions.inc();
  }
  entries_.push_front(Entry{key, std::move(plan), {}, false});
  Entry& entry = entries_.front();
  entry.parsed = split_key(entry.key, &entry.parts);
  index_[key] = entries_.begin();
  return entry.plan;
}

void PlanCache::clear() {
  entries_.clear();
  index_.clear();
}

namespace {

/// `name#<hex structural hash>` — the per-model key component.
std::string model_key_component(const std::string& name, std::uint64_t hash) {
  char hex[16];
  const auto digits = static_cast<std::size_t>(
      std::to_chars(hex, hex + sizeof(hex), hash, 16).ptr - hex);
  std::string out;
  out.reserve(name.size() + 1 + digits);
  out += name;
  out += '#';
  out.append(hex, digits);
  return out;
}

std::string assemble_key(const Soc& soc, std::vector<std::string> names,
                         const PlannerOptions& options,
                         const PlanCache::PlanEnv& env) {
  std::sort(names.begin(), names.end());

  std::string key;
  std::size_t length = soc.fingerprint().size() + 128;
  for (const std::string& n : names) length += n.size() + 1;
  key.reserve(length);
  key += soc.fingerprint();
  key += "||";
  for (const std::string& n : names) {
    key += n;
    key += ',';
  }
  // Normalize the mask to the SoC's processor count so the all-ones default
  // and an explicit "everything healthy" mask produce identical keys.
  const std::size_t P = soc.num_processors();
  const std::uint64_t full = P >= 64 ? ~0ull : ((1ull << P) - 1);
  // "||ct=%d,ws=%d,tail=%d,pct=%.17g,K=%zu,av=%llx,tb=%zu", without the
  // cost of a printf on every served and prefetched window.
  char buf[32];
  const auto append = [&](const char* label, auto value, auto... format) {
    key += label;
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), value, format...).ptr);
  };
  append("||ct=", options.contention_mitigation ? 1 : 0);
  append(",ws=", options.work_stealing ? 1 : 0);
  append(",tail=", options.tail_optimization ? 1 : 0);
  append(",pct=", options.classifier_percentile, std::chars_format::general, 17);
  append(",K=", options.num_stages);
  append(",av=", env.avail_mask & full, 16);
  append(",tb=", env.thermal_bucket);
  return key;
}

}  // namespace

std::string PlanCache::make_key(const Soc& soc,
                                const std::vector<const Model*>& models,
                                const PlannerOptions& options) {
  return make_key(soc, models, options, PlanEnv{});
}

std::string PlanCache::make_key(const Soc& soc,
                                const std::vector<const Model*>& models,
                                const PlannerOptions& options,
                                const PlanEnv& env) {
  std::vector<std::string> names;
  names.reserve(models.size());
  for (const Model* m : models) {
    names.push_back(m ? model_key_component(m->name(), m->content_hash())
                      : "<null>");
  }
  return assemble_key(soc, std::move(names), options, env);
}

}  // namespace h2p::exec
