//===- numeric/ClosureKernel.h - Flat transitive-closure kernels ---------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric core's v2 closure kernels. Section IX of the paper puts
/// 92.5% of analysis time into constraint-graph transitive closure; the
/// v1 kernels dispatched a virtual DbmStorage::get/set per matrix element,
/// which forbids vectorization outright. These kernels instead run on
/// DenseDbmStorage's raw contiguous rows with a branchless saturating
/// min-plus inner loop the compiler auto-vectorizes (CI verifies the
/// vectorization report), plus:
///
///   * cache blocking — the classic blocked Floyd–Warshall (diagonal /
///     row-panel / column-panel / remainder phases) in ClosureTile-sized
///     tiles, so the working set of the inner loops stays in L1/L2 at
///     n = 128..256 instead of streaming the whole matrix per k;
///   * sparse row skipping — the per-row occupancy bitmap maintained by
///     DenseDbmStorage::set lets both the k and i loops skip rows with no
///     finite off-diagonal bound, collapsing cold closures on the common
///     mostly-unconstrained graphs;
///   * exact semantics — for feasible systems the result is
///     entry-for-entry identical to the reference Floyd–Warshall (min-plus
///     over bounds <= DbmInfinity is order-independent), infeasibility is
///     detected on exactly the same inputs, and the session budget is
///     still polled per outer k-panel so deadlines can interrupt a huge
///     closure. ClosureKernelTest pins all of this against the reference.
///
/// fullClose/closeAfterEdge dispatch per backend: dense storages take the
/// flat kernel, everything else (the std::map ablation backend) takes the
/// reference loops — which are kept public as the test oracle.
///
/// The join of two closed matrices follows the same pattern: join() runs
/// the flat joinDense() when every operand is dense and the reference
/// joinRef() otherwise; DbmPropertyTest pins the two entry for entry.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_CLOSUREKERNEL_H
#define CSDF_NUMERIC_CLOSUREKERNEL_H

#include "numeric/DbmStorage.h"

#include <cassert>
#include <vector>

namespace csdf {
namespace kernel {

/// Tile edge for the blocked Floyd–Warshall phases. 32 rows of 32
/// int64 bounds = 8 KiB per tile operand, three operands well inside L1;
/// bench_closure's `BM_BlockedSweep` is the tuning record.
inline constexpr unsigned ClosureTile = 32;

/// Transitively closes \p M in place. Returns false when the constraint
/// system is infeasible (a negative cycle exists). Polls the session
/// budget per outer k-panel.
bool fullClose(DbmStorage &M);

/// Repairs closure after edge (I, J) was tightened; requires \p M was
/// closed before the tightening. Returns false on infeasibility.
bool closeAfterEdge(DbmStorage &M, unsigned I, unsigned J);

/// Reference implementations: the v1 naive triple loop over virtual
/// get/set. Still the execution path for non-dense backends, and the
/// oracle the ClosureKernelTest property suite compares the flat kernel
/// against.
bool fullCloseRef(DbmStorage &M);
bool closeAfterEdgeRef(DbmStorage &M, unsigned I, unsigned J);

/// The flat blocked/sparse kernels (dense storage only; fullClose and
/// closeAfterEdge route here via DbmStorage::asDense()).
bool fullCloseDense(DenseDbmStorage &M);
bool closeAfterEdgeDense(DenseDbmStorage &M, unsigned I, unsigned J);

//===----------------------------------------------------------------------===//
// Single-pivot relaxation
//===----------------------------------------------------------------------===//

/// Whether one Floyd–Warshall step through pivot \p I,
///   M[A][J] = min(M[A][J], M[A][I] + M[I][J])   for every row A != I,
/// would change the matrix. That step is what copying variable I into a
/// fresh slot and repairing closure does to the rest of the matrix
/// (ConstraintGraph::moveNamespace); with M[I][I] == 0 it is
/// closeAfterEdge(M, I, I). On a truly closed matrix it changes nothing;
/// on a widened one it can tighten. The scan only reads: it returns the
/// first row the step would tighten, or M.size() when it would change
/// nothing, so a caller holding a shared matrix can skip the
/// copy-on-write detach.
unsigned firstRowTightenedThrough(const DbmStorage &M, unsigned I);

/// Reference version over virtual get: the path for non-dense backends
/// and the oracle of the dense one.
unsigned firstRowTightenedThroughRef(const DbmStorage &M, unsigned I);

/// Flat version on raw rows, skipping unoccupied rows.
unsigned firstRowTightenedThroughDense(const DenseDbmStorage &M, unsigned I);

//===----------------------------------------------------------------------===//
// Per-cell loops
//===----------------------------------------------------------------------===//

/// Calls \p Fn with \p M as its concrete backend — DenseDbmStorage or
/// MapDbmStorage, both final — so the get/set calls of a per-cell loop
/// written once as a generic lambda inline instead of dispatching
/// virtually per cell. Returns what \p Fn returns.
template <typename Fn> decltype(auto) visit(DbmStorage &M, Fn &&F) {
  if (DenseDbmStorage *D = M.asDense())
    return F(*D);
  assert(dynamic_cast<MapDbmStorage *>(&M) && "unknown DBM backend");
  return F(static_cast<MapDbmStorage &>(M));
}

template <typename Fn> decltype(auto) visit(const DbmStorage &M, Fn &&F) {
  if (const DenseDbmStorage *D = M.asDense())
    return F(*D);
  assert(dynamic_cast<const MapDbmStorage *>(&M) && "unknown DBM backend");
  return F(static_cast<const MapDbmStorage &>(M));
}

//===----------------------------------------------------------------------===//
// Join
//===----------------------------------------------------------------------===//

/// The slot of each union variable in one join operand, or -1 when the
/// operand lacks the variable.
using SlotMap = std::vector<int>;

/// Bound of union pair (I, J) in the closed matrix \p M seen through
/// \p Map. A variable the operand lacks is unconstrained there: 0 on the
/// diagonal, DbmInfinity elsewhere. On a concrete backend (see visit())
/// the read inlines.
template <typename StorageT>
std::int64_t boundThrough(const StorageT &M, const SlotMap &Map, unsigned I,
                          unsigned J) {
  if (Map[I] < 0 || Map[J] < 0)
    return I == J ? 0 : DbmInfinity;
  return M.get(static_cast<unsigned>(Map[I]), static_cast<unsigned>(Map[J]));
}

/// Writes the join of closed matrices \p A and \p B into \p Out: entry
/// (I, J) of the union is the max of the two operands' bounds through
/// \p MapA and \p MapB. \p Out must already have the union's size
/// (MapA.size() == MapB.size()). Pointwise max of closed matrices is
/// closed, so \p Out needs no closure afterwards.
void join(const DbmStorage &A, const SlotMap &MapA, const DbmStorage &B,
          const SlotMap &MapB, DbmStorage &Out);

/// Reference join: boundThrough per entry over virtual get/set. The path
/// for non-dense backends and the test oracle of joinDense.
void joinRef(const DbmStorage &A, const SlotMap &MapA, const DbmStorage &B,
             const SlotMap &MapB, DbmStorage &Out);

/// Flat join on raw rows. Writes every entry of \p Out and an exact
/// occupancy byte per row in one sweep; a row either operand lacks or
/// leaves unoccupied keeps only its diagonal, and identical variable lists
/// reduce to a row-wise max.
void joinDense(const DenseDbmStorage &A, const SlotMap &MapA,
               const DenseDbmStorage &B, const SlotMap &MapB,
               DenseDbmStorage &Out);

} // namespace kernel
} // namespace csdf

#endif // CSDF_NUMERIC_CLOSUREKERNEL_H
