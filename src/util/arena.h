#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

namespace h2p::util {

/// Monotonic bump allocator backing reusable scratch state.
///
/// All allocations are carved from one contiguous block; `reset()` rewinds
/// the bump pointer without releasing memory, so a consumer that carves the
/// same (or smaller) working set every cycle performs **zero** heap
/// allocations after its first, largest cycle.  When a cycle outgrows the
/// block, the arena grows geometrically on the next `reserve()` — live spans
/// from the *current* cycle stay valid because growth only ever happens
/// between `reset()` and the first carve (see `reserve`).
///
/// Every carve starts on a `kAlignment` (64-byte) boundary: one cache line,
/// so a `SimScratch` / scorer span's 4-double blocks (`util/simd.h`) never
/// straddle a line, and distinct spans never share a cache line (no false
/// sharing between a span's tail and the next span's head).  Callers budgeting a
/// cycle with `reserve()` must allow `kAlignment` slack per carve.
///
/// Not thread-safe: one arena per thread (the DES scratch keeps
/// thread-local instances).
class MonotonicArena {
 public:
  /// Carve alignment guarantee.  static_assert-able by consumers that
  /// require a minimum (a cache line is 64).
  static constexpr std::size_t kAlignment = 64;
  static_assert((kAlignment & (kAlignment - 1)) == 0,
                "alignment must be a power of two");

  MonotonicArena() = default;
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Rewind to empty, retaining the underlying block.
  void reset() { used_ = 0; }

  /// Ensure the block can serve `bytes` without growing mid-cycle.  Must be
  /// called while the arena is empty (right after `reset()`): growing
  /// reallocates the block, which would invalidate spans carved earlier in
  /// the same cycle.
  void reserve(std::size_t bytes) {
    if (bytes <= capacity_) return;
    std::size_t grown = capacity_ ? capacity_ : 1024;
    while (grown < bytes) grown *= 2;
    // Over-allocate so the first carve can start on a kAlignment boundary
    // even when operator new returns a less-aligned block.
    block_ = std::make_unique<std::byte[]>(grown + kAlignment);
    const auto raw = reinterpret_cast<std::uintptr_t>(block_.get());
    const std::uintptr_t aligned = (raw + kAlignment - 1) & ~(kAlignment - 1);
    base_ = block_.get() + (aligned - raw);
    capacity_ = grown;
    used_ = 0;
  }

  /// Carve `count` default-initialized (i.e. uninitialized for scalars)
  /// elements of a trivially-destructible T, starting on a kAlignment
  /// boundary.  The caller is responsible for writing before reading; DES
  /// scratch buffers are fully re-initialized every simulation, which is
  /// what keeps reuse bit-deterministic.
  template <typename T>
  std::span<T> make_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    static_assert(alignof(T) <= kAlignment,
                  "carve alignment below the type's requirement");
    std::size_t at = (used_ + kAlignment - 1) & ~(kAlignment - 1);
    const std::size_t bytes = count * sizeof(T);
    if (at + bytes > capacity_) {
      // Mid-cycle growth fallback: legal only when nothing is live, which
      // SimScratch guarantees by sizing the whole cycle via reserve() first.
      reserve(at + bytes);
      at = 0;
    }
    T* ptr = std::launder(reinterpret_cast<T*>(base_ + at));
    used_ = at + bytes;
    return std::span<T>(ptr, count);
  }

  [[nodiscard]] std::size_t bytes_reserved() const { return capacity_; }

 private:
  std::unique_ptr<std::byte[]> block_;
  std::byte* base_ = nullptr;  // first kAlignment-aligned byte of block_
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace h2p::util
