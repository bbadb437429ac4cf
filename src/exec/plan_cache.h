#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "models/model.h"
#include "soc/soc.h"
#include "util/lru_map.h"

namespace h2p::exec {

/// Execution-environment part of a plan's key.  A plan laid out for the
/// full SoC is useless once a processor has dropped out, and one tuned for
/// a cool chip misprices a throttled one — so the availability mask and a
/// coarse thermal bucket (see soc/thermal.h) key separate entries, and
/// `find_near` only warm-starts from plans laid out under the *same*
/// environment.
struct PlanEnv {
  /// Bit p set = processor p usable.  Truncated to the SoC's processor
  /// count, so the all-ones default means "fully healthy".
  std::uint64_t avail_mask = ~0ull;
  /// Coarse thermal state bucket; 0 = cool/nominal.
  std::size_t thermal_bucket = 0;

  bool operator==(const PlanEnv&) const = default;
};

/// What a compiled plan was planned for: the device, the window as a model
/// multiset, the planner knobs and the execution environment.  Built only by
/// `make_key`.
struct PlanKey {
  /// One model of the window.  The content hash keys on what the model
  /// *is*, so two topologies never collide even when their names do.
  struct ModelTag {
    std::string name;
    std::uint64_t content_hash = 0;

    auto operator<=>(const ModelTag&) const = default;
  };

  std::string soc;               // Soc::fingerprint()
  std::vector<ModelTag> models;  // sorted: arrival order does not matter
  PlannerOptions options;
  PlanEnv env;                   // mask truncated to the SoC's processors

  bool operator==(const PlanKey&) const = default;

  /// True when `other` is a different key with the same SoC, knobs and
  /// environment whose model multiset is within one add, remove or
  /// substitute of this one's.
  [[nodiscard]] bool near(const PlanKey& other) const;
};

struct PlanKeyHash {
  [[nodiscard]] std::size_t operator()(const PlanKey& key) const;
};

/// The key of `models` planned on `soc` under `options` in `env` (the
/// default environment is "fully healthy, nominal thermals").  Throws
/// std::invalid_argument on a null model or a NaN classifier percentile (a
/// key unequal to itself would never hit and could never be evicted).
[[nodiscard]] PlanKey make_key(const Soc& soc,
                               const std::vector<const Model*>& models,
                               const PlannerOptions& options,
                               const PlanEnv& env = {});

/// LRU cache of compiled plans for the online serving path, keyed by
/// `PlanKey`: two request windows holding the same models in any order, on
/// the same device, under the same planner knobs and environment, resolve
/// to the same entry — so a repeated window skips both the
/// StaticEvaluator's cost-table build and the O(|M|^3 |H|) planner, the
/// cost §V-C flags as the reason the planner "should be scheduled more
/// frequently" at high request rates.
///
/// Beyond exact hits, `find_near` serves *near misses* (`PlanKey::near`):
/// an entry whose model multiset differs from the probe's by one model
/// added, removed or substituted.  Such an entry cannot be executed
/// directly, but it seeds warm-start replanning
/// (`Hetero2PipePlanner::plan_warm`), which reuses the cached plan's
/// boundaries instead of planning the window from scratch.
///
/// Returned pointers stay valid until their entry is evicted or the cache
/// is cleared; they are not invalidated by lookups or by inserting other
/// keys.  Not thread-safe; guard externally if shared across threads.
///
/// Hits, misses, warm hits and evictions count into the global obs::Registry
/// (`plan_cache.*`) when it is enabled.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 32) : entries_(capacity) {}

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }

  /// Lookup; bumps the entry to most-recently-used and counts a hit/miss.
  [[nodiscard]] const CompiledPlan* find(const PlanKey& key);

  /// Non-mutating lookup: no LRU bump, no count.  The async prefetcher uses
  /// this to decide whether a window is worth a speculative cold plan
  /// without perturbing the (deterministic) LRU order the consume path sees.
  [[nodiscard]] const CompiledPlan* peek(const PlanKey& key) const {
    return entries_.peek(key);
  }

  /// Near-miss lookup: the most-recently-used entry whose key is `near`
  /// `key` (an exact match is `find`'s job).  Bumps it to MRU and counts a
  /// warm hit; returns nullptr (uncounted) otherwise.
  [[nodiscard]] const CompiledPlan* find_near(const PlanKey& key);

  /// Non-mutating near-miss lookup: the entry `find_near` would return, but
  /// without the MRU bump or the warm-hit count (`find_near` is to this what
  /// `find` is to `peek`).  The async prefetcher uses it to skip windows the
  /// consume path will warm-start instead of planning cold.
  [[nodiscard]] const CompiledPlan* peek_near(const PlanKey& key) const;

  /// Insert (or overwrite) and return the stored plan; evicts the
  /// least-recently-used entry when at capacity.
  const CompiledPlan& insert(const PlanKey& key, CompiledPlan plan);

  void clear() { entries_.clear(); }

 private:
  [[nodiscard]] const PlanKey* scan_near(const PlanKey& key) const {
    return entries_.find_key_if(
        [&key](const PlanKey& cand) { return cand.near(key); });
  }

  LruMap<PlanKey, CompiledPlan, PlanKeyHash> entries_;
};

}  // namespace h2p::exec
