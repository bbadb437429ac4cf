#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace h2p {

/// Bounded map that evicts its least-recently-used entry on overflow.  Each
/// key is stored once (the recency list points at the map's own keys).  Not
/// thread-safe; guard externally if shared across threads.
///
/// Move-only: a copy's recency list would point at the source map's keys.
template <class Key, class Value, class Hash = std::hash<Key>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;
  LruMap(LruMap&&) = default;
  LruMap& operator=(LruMap&&) = default;

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The value stored under `key`, bumped to most recently used; nullptr
  /// when absent.  Valid until the entry is evicted or the map cleared.
  [[nodiscard]] Value* find(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second.pos);
    return &it->second.value;
  }

  /// `find` without the bump: the recency order stays as it is.
  [[nodiscard]] const Value* peek(const Key& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }

  /// Walks the keys most recently used first and returns the first one
  /// `pred` accepts; nullptr when none does.  Bumps nothing.
  template <class Pred>
  [[nodiscard]] const Key* find_key_if(Pred pred) const {
    for (const Key* key : order_) {
      if (pred(*key)) return key;
    }
    return nullptr;
  }

  /// Stores `value` under `key` as the most recently used entry (replacing
  /// any value already there), first evicting the least recently used entry
  /// when a new key finds the map full.  Returns true when it evicted.
  bool insert(Key key, Value value) {
    if (Value* existing = find(key)) {
      *existing = std::move(value);
      return false;
    }
    bool evicted = false;
    if (map_.size() >= capacity_) {
      const Key* oldest = order_.back();
      order_.pop_back();
      map_.erase(*oldest);
      evicted = true;
    }
    const auto it =
        map_.emplace(std::move(key), Slot{std::move(value), order_.end()}).first;
    order_.push_front(&it->first);
    it->second.pos = order_.begin();
    return evicted;
  }

  void clear() {
    order_.clear();
    map_.clear();
  }

 private:
  struct Slot {
    Value value;
    typename std::list<const Key*>::iterator pos;
  };

  std::size_t capacity_;
  std::list<const Key*> order_;  // front = most recently used
  std::unordered_map<Key, Slot, Hash> map_;
};

}  // namespace h2p
