#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "models/model.h"
#include "soc/soc.h"

namespace h2p::exec {

/// LRU cache of compiled plans for the online serving path.
///
/// Keyed by (SoC fingerprint, *multiset* of `name#<structural hash>` model
/// components, PlannerOptions): two request windows holding the same models
/// in any order, on the same device, under the same planner knobs, resolve
/// to the same entry — and two different topologies never collide even when
/// their layer multisets (or names) coincide — so a
/// repeated window skips both the StaticEvaluator's cost-table build and
/// the O(|M|^3 |H|) planner, the cost §V-C flags as the reason the planner
/// "should be scheduled more frequently" at high request rates.
///
/// Beyond exact hits, `find_near` serves *near misses*: an entry whose model
/// multiset differs from the probe key by at most one model added, removed
/// or substituted (same SoC, same knobs).  Such an entry cannot be executed
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
  explicit PlanCache(std::size_t capacity = 32);
  // Entries hold views into their own keys, and the index points into the
  // entry list: a copy would alias the original's storage.
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Lookup; bumps the entry to most-recently-used and counts a hit/miss.
  [[nodiscard]] const CompiledPlan* find(const std::string& key);

  /// Non-mutating lookup: no LRU bump, no count.  The async prefetcher uses
  /// this to decide whether a window is worth a speculative cold plan
  /// without perturbing the (deterministic) LRU order the consume path sees.
  [[nodiscard]] const CompiledPlan* peek(const std::string& key) const;

  /// Near-miss lookup: the most-recently-used entry whose key matches
  /// `key`'s SoC fingerprint and planner knobs exactly and whose model
  /// multiset is within one add/remove/substitute of `key`'s.  An *exact*
  /// match is never returned (that is `find`'s job).  Bumps the source
  /// entry to MRU and counts a warm hit; returns nullptr (uncounted)
  /// otherwise.  Keys that did not come from `make_key` never match.
  [[nodiscard]] const CompiledPlan* find_near(const std::string& key);

  /// Non-mutating near-miss lookup: the entry `find_near` would return, but
  /// without the MRU bump or the warm-hit count (`find_near` is to this what
  /// `find` is to `peek`).  The async prefetcher uses it to skip windows the
  /// consume path will warm-start instead of planning cold.
  [[nodiscard]] const CompiledPlan* peek_near(const std::string& key) const;

  /// Insert (or overwrite) and return the stored plan; evicts the
  /// least-recently-used entry when at capacity.
  const CompiledPlan& insert(const std::string& key, CompiledPlan plan);

  void clear();

  /// Execution-environment part of the key.  A plan laid out for the full
  /// SoC is useless once a processor has dropped out, and one tuned for a
  /// cool chip misprices a throttled one — so the availability mask and a
  /// coarse thermal bucket (see soc/thermal.h) key separate entries.  Both
  /// live in the knob suffix, so `find_near` only warm-starts from plans
  /// laid out under the *same* environment.
  struct PlanEnv {
    /// Bit p set = processor p usable.  Truncated to the SoC's processor
    /// count, so the all-ones default means "fully healthy".
    std::uint64_t avail_mask = ~0ull;
    /// Coarse thermal state bucket; 0 = cool/nominal.
    std::size_t thermal_bucket = 0;
  };

  /// Canonical key: Soc fingerprint + sorted `name#<content hash>` model
  /// components + planner knobs (+ execution environment; the overload
  /// without one means "fully healthy, nominal thermals").  The content
  /// hash keys on what the model *is*, not what it is called.
  [[nodiscard]] static std::string make_key(const Soc& soc,
                                            const std::vector<const Model*>& models,
                                            const PlannerOptions& options);
  [[nodiscard]] static std::string make_key(const Soc& soc,
                                            const std::vector<const Model*>& models,
                                            const PlannerOptions& options,
                                            const PlanEnv& env);

  /// True if the two make_key-style keys agree on SoC + knobs and their
  /// name multisets differ by at most one add/remove/substitute (exact
  /// matches return false).  Exposed for tests; malformed keys never
  /// qualify.
  [[nodiscard]] static bool near_miss(const std::string& a, const std::string& b);

 private:
  /// A make_key-produced key split into (soc fingerprint, sorted model
  /// components, knob suffix), as views into the key.
  struct KeyParts {
    std::string_view soc;
    std::vector<std::string_view> names;
    std::string_view knobs;
  };

  struct Entry {
    std::string key;
    CompiledPlan plan;
    /// `key` parsed once at insert (views into `key`, which a list node
    /// never moves); `parsed` is false for keys not made by make_key.
    KeyParts parts;
    bool parsed = false;
  };

  static bool split_key(std::string_view key, KeyParts* out);
  /// The near-miss search `find_near` and `peek_near` share; end() if none.
  [[nodiscard]] std::list<Entry>::const_iterator scan_near(
      const std::string& key) const;

  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace h2p::exec
