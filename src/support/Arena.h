//===- support/Arena.h - Pooled buffer arena for hot-path allocations ----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-local, size-bucketed buffer pool backing the numeric core's
/// hot allocations (DBM matrices, closure scratch). The pCFG engine
/// creates and destroys thousands of short-lived DenseDbmStorage buffers
/// per analysis — one per cold graph build, join, and copy-on-write
/// detach — and Section IX's "arrays instead of C++ STL containers"
/// direction is only half captured if every array still costs a trip to
/// the general-purpose allocator. The arena recycles buffers by
/// power-of-two size class so steady-state closure work allocates
/// nothing.
///
/// Thread safety by construction: each thread owns a private pool.
/// acquire() takes from (and release() returns to) the *calling* thread's
/// pool, so a buffer allocated on one thread and freed on another simply
/// migrates — there is no cross-thread data structure to race on. Pools
/// are bounded (per-bucket count and total byte cap); overflow falls
/// through to operator new/delete.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_ARENA_H
#define CSDF_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace csdf {

/// Returns a buffer of at least \p Bytes (rounded up to the bucket size),
/// recycled from the calling thread's pool when possible.
void *arenaAcquire(std::size_t Bytes);

/// Returns \p P (previously acquired with a request of \p Bytes) to the
/// calling thread's pool, or frees it when the pool is full.
void arenaRelease(void *P, std::size_t Bytes) noexcept;

/// Buffers currently cached by the calling thread's pool, in bytes.
/// Test/diagnostic hook.
std::size_t arenaCachedBytes();

/// Frees every buffer cached by the calling thread's pool. Test hook.
void arenaDrain();

/// Allocator adapter so standard containers (the DenseDbmStorage matrix)
/// draw from the arena. Stateless: all instances are interchangeable.
template <typename T> struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U> PoolAllocator(const PoolAllocator<U> &) noexcept {}

  T *allocate(std::size_t N) {
    return static_cast<T *>(arenaAcquire(N * sizeof(T)));
  }
  void deallocate(T *P, std::size_t N) noexcept {
    arenaRelease(P, N * sizeof(T));
  }

  /// Default-initializes rather than value-initializes, so a container
  /// sized to N trivially constructible elements leaves them unwritten
  /// instead of zero-filling them: DenseDbmStorage writes every cell of a
  /// fresh matrix before it reads it.
  template <typename U> void construct(U *P) {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args> void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }

  template <typename U> bool operator==(const PoolAllocator<U> &) const {
    return true;
  }
  template <typename U> bool operator!=(const PoolAllocator<U> &) const {
    return false;
  }
};

} // namespace csdf

#endif // CSDF_SUPPORT_ARENA_H
