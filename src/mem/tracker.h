#pragma once

// Tracked allocation layer — the accounting half of the memory subsystem.
//
// The paper's NV-Block CHI_SUM exists because polarizability workspace is
// memory-bounded per GPU (Sec. 5.2): under a fixed HBM budget the O(N^3)
// pair workspace must be blocked over N_v. Planning against a budget is
// only honest when the actual footprint is measured, so every ZMatrix
// (la/matrix) and FFT workspace (fft) allocates through TrackedAllocator,
// which maintains per-tag byte counters and high-water marks in MemTracker.
//
// Cost: one relaxed fetch_add plus a relaxed CAS-max per allocation — a few
// nanoseconds, paid only when a container actually touches the heap. Hot
// kernels pre-allocate (and, with mem/arena bound, stop touching the heap
// entirely), so the tracker adds nothing to inner loops.
//
// The tracker feeds three consumers:
//  * obs::Span samples it on close, giving the run report a per-stage
//    peak_bytes column;
//  * obs gauges (mem/current_bytes, mem/peak_bytes, per-tag peaks) via
//    obs::record_mem_gauges();
//  * mem::Planner validation — bench_nvblock and test_mem compare the
//    planner's predicted peak against the measured high-water mark.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace xgw::mem {

/// Fixed allocation tags: a closed set keeps the per-tag counters as plain
/// atomic arrays (no registration, no locks, safe during static teardown).
enum class Tag : int {
  kMatrix = 0,     ///< la/matrix dense storage (the bulk of every run)
  kFft,            ///< FFT plans and per-thread transform workspaces
  kArena,          ///< workspace arena slabs (mem/arena)
  kSpill,          ///< spill pool resident matrices (mem/spill)
  kOther,          ///< everything else routed through TrackedAllocator
  kCount
};

inline constexpr int kTagCount = static_cast<int>(Tag::kCount);

const char* tag_name(Tag t);

/// Per-tag snapshot (relaxed reads: live-process scrape semantics).
struct TagStats {
  std::uint64_t current_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t alloc_calls = 0;
  std::uint64_t free_calls = 0;
};

class MemTracker {
 public:
  void on_alloc(Tag t, std::size_t bytes) noexcept {
    const auto i = static_cast<std::size_t>(t);
    bump(current_[i], peak_[i], bytes);
    bump(total_current_, total_peak_, bytes);
    allocs_[i].fetch_add(1, std::memory_order_relaxed);
    total_allocs_.fetch_add(1, std::memory_order_relaxed);
  }

  void on_free(Tag t, std::size_t bytes) noexcept {
    const auto i = static_cast<std::size_t>(t);
    current_[i].fetch_sub(bytes, std::memory_order_relaxed);
    total_current_.fetch_sub(bytes, std::memory_order_relaxed);
    frees_[i].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t current_bytes() const noexcept {
    return total_current_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_bytes() const noexcept {
    return total_peak_.load(std::memory_order_relaxed);
  }
  /// Heap allocation count across all tags — what the zero-allocation
  /// inner-loop assertions in tests measure. Arena-sourced allocations do
  /// not bump this (they touch no heap).
  std::uint64_t alloc_calls() const noexcept {
    return total_allocs_.load(std::memory_order_relaxed);
  }

  TagStats tag(Tag t) const noexcept {
    const auto i = static_cast<std::size_t>(t);
    TagStats s;
    s.current_bytes = current_[i].load(std::memory_order_relaxed);
    s.peak_bytes = peak_[i].load(std::memory_order_relaxed);
    s.alloc_calls = allocs_[i].load(std::memory_order_relaxed);
    s.free_calls = frees_[i].load(std::memory_order_relaxed);
    return s;
  }

  /// Re-arms every high-water mark at the current level so a bench/test can
  /// measure the peak of one phase in isolation. Call from quiescent code
  /// only (like FlopCounter::reset and MetricsRegistry::clear).
  void reset_peak() noexcept {
    for (int i = 0; i < kTagCount; ++i)
      peak_[static_cast<std::size_t>(i)].store(
          current_[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
    total_peak_.store(total_current_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }

  /// Human-readable one-line-per-tag summary (diagnostics / run logs).
  std::string summary() const;

  /// Process-wide tracker. Members are trivially destructible, so use
  /// during static teardown is safe.
  static MemTracker& global() noexcept;

 private:
  static void bump(std::atomic<std::uint64_t>& cur,
                   std::atomic<std::uint64_t>& peak,
                   std::size_t bytes) noexcept {
    const std::uint64_t now =
        cur.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t p = peak.load(std::memory_order_relaxed);
    while (now > p &&
           !peak.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kTagCount> current_{};
  std::array<std::atomic<std::uint64_t>, kTagCount> peak_{};
  std::array<std::atomic<std::uint64_t>, kTagCount> allocs_{};
  std::array<std::atomic<std::uint64_t>, kTagCount> frees_{};
  std::atomic<std::uint64_t> total_current_{0};
  std::atomic<std::uint64_t> total_peak_{0};
  std::atomic<std::uint64_t> total_allocs_{0};
};

/// Shorthand for MemTracker::global().
inline MemTracker& tracker() noexcept { return MemTracker::global(); }

class Arena;

/// The calling thread's innermost bound arena (nullptr when none) and the
/// binding-stack walker used by deallocation. Defined in mem/arena.cpp.
Arena* current_arena() noexcept;
Arena* owning_arena(const void* p) noexcept;

/// Arena routing policy for TrackedAllocator. Containers whose lifetime can
/// exceed an arena scope (thread_local FFT workspaces, caches) must use
/// kNeverArena so they never hold arena-backed storage.
enum class Route { kArenaWhenBound, kNeverArena };

void* tracked_arena_alloc(std::size_t bytes, std::size_t align) noexcept;
bool tracked_arena_free(void* p, std::size_t bytes) noexcept;

/// std-compatible allocator: heap allocations are counted in MemTracker
/// under `T_tag`; when a mem::Arena is bound to the calling thread (and the
/// route allows it) storage comes from the arena instead — no heap, no
/// counter bump, released wholesale at the arena mark.
template <typename T, Tag T_tag = Tag::kOther,
          Route T_route = Route::kArenaWhenBound>
struct TrackedAllocator {
  using value_type = T;

  TrackedAllocator() noexcept = default;
  template <typename U>
  TrackedAllocator(const TrackedAllocator<U, T_tag, T_route>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if constexpr (T_route == Route::kArenaWhenBound) {
      if (void* p = tracked_arena_alloc(bytes, alignof(T)))
        return static_cast<T*>(p);
    }
    tracker().on_alloc(T_tag, bytes);
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if constexpr (T_route == Route::kArenaWhenBound) {
      if (tracked_arena_free(p, bytes)) return;
    }
    tracker().on_free(T_tag, bytes);
    ::operator delete(p);
  }

  template <typename U>
  struct rebind {
    using other = TrackedAllocator<U, T_tag, T_route>;
  };

  friend bool operator==(const TrackedAllocator&,
                         const TrackedAllocator&) noexcept {
    return true;
  }
};

}  // namespace xgw::mem
