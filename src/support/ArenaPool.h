//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide pool of recycled bump-pointer arenas.
///
/// Batch runs and server sessions construct an AST context, a region
/// program, and an interner per item/request, each backed by an arena that
/// would otherwise hit the system allocator for every slab. The pool keeps
/// reset arenas in power-of-two size classes (keyed by bytes reserved, like
/// the VM's region buffer pool) so a new tenant checks out the memory of a
/// previous one instead of mapping fresh pages.
///
/// The global pool retains at most 32 arenas.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_ARENAPOOL_H
#define AFL_SUPPORT_ARENAPOOL_H

#include "support/Arena.h"

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace afl {

/// Thread-safe checkout/return pool of reset arenas.
class ArenaPool {
public:
  /// Snapshot of pool activity, exported under the metrics "memory/" scope.
  struct Stats {
    size_t Checkouts = 0; ///< Total acquire() calls.
    size_t Hits = 0;      ///< Checkouts served from the pool.
    size_t Misses = 0;    ///< Checkouts that built a fresh arena.
    size_t Returns = 0;   ///< Arenas returned via release().
    size_t Discarded = 0; ///< Returns dropped because the pool was full.
    size_t Pooled = 0;    ///< Arenas currently held.
    size_t RetainedBytes = 0; ///< Bytes reserved across held arenas.
  };

  ArenaPool() = default;
  explicit ArenaPool(size_t MaxPooled) : MaxPooled(MaxPooled) {}
  ArenaPool(const ArenaPool &) = delete;
  ArenaPool &operator=(const ArenaPool &) = delete;

  /// Checks out an arena, preferring the largest pooled one so big
  /// workloads keep their big slabs. Falls back to a fresh arena.
  Arena acquire();

  /// Resets \p A (retaining its largest slab) and returns it to the pool;
  /// drops it on the floor if the pool is at capacity.
  void release(Arena &&A);

  /// Drops every pooled arena. Mainly for tests and shutdown hygiene.
  void clear();

  Stats stats() const;

  /// Retention cap, fixed at construction.
  size_t maxPooled() const { return MaxPooled; }

  /// The process-wide pool leased by PooledArena.
  static ArenaPool &global();

  /// Always true: PooledArena always leases from the global pool. Kept
  /// only because perfbench's info line prints it.
  static constexpr bool globalEnabled() { return true; }

private:
  // Size classes keyed by floor(log2(bytesReserved)), clamped into
  // [MinClass, NumClasses): class 0 holds everything below 64 KiB (one
  // default slab), the last class everything >= 2^(MinClass+NumClasses-1).
  static constexpr size_t NumClasses = 16;
  static constexpr size_t MinClassLog2 = 16; // 64 KiB = default slab size

  static size_t sizeClass(size_t Bytes);

  mutable std::mutex M;
  std::vector<Arena> Classes[NumClasses];
  const size_t MaxPooled = 32;
  size_t NumPooled = 0;
  Stats S;
};

/// RAII lease of an arena from the global pool. Construction checks one
/// out; destruction returns it. Movable so arena-owning containers
/// (RegionProgram) keep their move semantics; a moved-from lease returns
/// nothing.
class PooledArena {
public:
  PooledArena() : A(ArenaPool::global().acquire()) {}

  PooledArena(PooledArena &&Other) noexcept
      : Lease(Other.Lease), A(std::move(Other.A)) {
    Other.Lease = false;
  }
  PooledArena &operator=(PooledArena &&Other) noexcept {
    if (this != &Other) {
      surrender();
      Lease = Other.Lease;
      A = std::move(Other.A);
      Other.Lease = false;
    }
    return *this;
  }
  PooledArena(const PooledArena &) = delete;
  PooledArena &operator=(const PooledArena &) = delete;

  ~PooledArena() { surrender(); }

  Arena &arena() { return A; }
  const Arena &arena() const { return A; }

  void *allocate(size_t Size, size_t Align) { return A.allocate(Size, Align); }
  template <typename T, typename... Args> T *create(Args &&...ArgValues) {
    return A.create<T>(std::forward<Args>(ArgValues)...);
  }

private:
  void surrender() {
    if (Lease)
      ArenaPool::global().release(std::move(A));
    Lease = false;
  }

  bool Lease = true;
  Arena A;
};

} // namespace afl

#endif // AFL_SUPPORT_ARENAPOOL_H
