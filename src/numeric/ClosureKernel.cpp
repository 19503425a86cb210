//===- numeric/ClosureKernel.cpp ------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// This translation unit is compiled with the kernel's SIMD flags (see
// src/numeric/CMakeLists.txt); everything that must vectorize lives here.
// tools/check-closure-vectorization.sh recompiles it with the compiler's
// vectorization report enabled and fails CI when the anchored inner loop
// is not vectorized.
//
//===----------------------------------------------------------------------===//

#include "numeric/ClosureKernel.h"

#include "support/Arena.h"
#include "support/Budget.h"

#include <algorithm>

using namespace csdf;

//===----------------------------------------------------------------------===//
// Reference kernels (v1 semantics, virtual dispatch)
//===----------------------------------------------------------------------===//

bool kernel::fullCloseRef(DbmStorage &M) {
  unsigned N = M.size();
  for (unsigned K = 0; K < N; ++K) {
    // The O(n^3) hot spot of the paper's Section IX profile: poll the
    // session budget once per outer iteration so a deadline can interrupt
    // even a single huge closure.
    budgetCheckpoint();
    for (unsigned I = 0; I < N; ++I) {
      std::int64_t BIK = M.get(I, K);
      if (BIK >= DbmInfinity)
        continue;
      for (unsigned J = 0; J < N; ++J) {
        std::int64_t Through = dbmAdd(BIK, M.get(K, J));
        if (Through < M.get(I, J))
          M.set(I, J, Through);
      }
    }
  }
  for (unsigned I = 0; I < N; ++I)
    if (M.get(I, I) < 0)
      return false;
  return true;
}

bool kernel::closeAfterEdgeRef(DbmStorage &M, unsigned I, unsigned J) {
  unsigned N = M.size();
  std::int64_t C = M.get(I, J);
  if (dbmAdd(M.get(J, I), C) < 0)
    return false;
  for (unsigned A = 0; A < N; ++A) {
    std::int64_t AI = M.get(A, I);
    if (AI >= DbmInfinity)
      continue;
    std::int64_t AIC = dbmAdd(AI, C);
    for (unsigned Bc = 0; Bc < N; ++Bc) {
      std::int64_t Through = dbmAdd(AIC, M.get(J, Bc));
      if (Through < M.get(A, Bc))
        M.set(A, Bc, Through);
    }
  }
  return true;
}

unsigned kernel::firstRowTightenedThroughRef(const DbmStorage &M,
                                             unsigned I) {
  unsigned N = M.size();
  for (unsigned A = 0; A < N; ++A) {
    std::int64_t AI = M.get(A, I);
    if (A == I || AI >= DbmInfinity)
      continue;
    for (unsigned J = 0; J < N; ++J)
      if (dbmAdd(AI, M.get(I, J)) < M.get(A, J))
        return A;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Flat kernels
//===----------------------------------------------------------------------===//

namespace {

/// Branchless saturating min-plus over one row segment:
///   RowI[j] = min(RowI[j], BIK (+) RowK[j])   for j in [Lo, Hi)
/// where (+) is dbmAdd with BIK known finite. The select on
/// RowK[j] >= DbmInfinity reproduces dbmAdd's absorbing infinity exactly
/// (a plain add would let a negative BIK pull infinity back into the
/// finite range), and the clamp at DbmNegFloor its floor (negative cycles
/// would otherwise double bounds until they overflow). Compare/select/min
/// are all lane-wise ops, so with restrict-qualified pointers the loop
/// auto-vectorizes.
///
/// Callers must guarantee RowI != RowK: every call site either skips the
/// aliasing iteration (it is provably a no-op on feasible systems) or
/// addresses disjoint rows.
inline void minPlusRow(std::int64_t *__restrict RowI,
                       const std::int64_t *__restrict RowK, std::int64_t BIK,
                       unsigned Lo, unsigned Hi) {
  for (unsigned J = Lo; J < Hi; ++J) { // CSDF-VEC-ANCHOR
    std::int64_t KJ = RowK[J];
    std::int64_t T = BIK + KJ;
    T = T < DbmNegFloor ? DbmNegFloor : T;
    T = KJ >= DbmInfinity ? DbmInfinity : T;
    RowI[J] = RowI[J] < T ? RowI[J] : T;
  }
}

/// True when minPlusRow(RowI, RowK, BIK, 0, N) would lower some entry of
/// RowI. The same lane-wise arithmetic, reduced into a flag instead of
/// stored, so the loop vectorizes and never writes.
inline bool minPlusRowTightens(const std::int64_t *__restrict RowI,
                               const std::int64_t *__restrict RowK,
                               std::int64_t BIK, unsigned N) {
  unsigned Tightens = 0;
  for (unsigned J = 0; J < N; ++J) {
    std::int64_t KJ = RowK[J];
    std::int64_t T = BIK + KJ;
    T = T < DbmNegFloor ? DbmNegFloor : T;
    T = KJ >= DbmInfinity ? DbmInfinity : T;
    Tightens |= T < RowI[J];
  }
  return Tightens != 0;
}

/// One Floyd–Warshall panel: for K in [KLo, KHi), relax rows [ILo, IHi)
/// against row K over columns [JLo, JHi). With all three ranges equal to
/// a tile this is the diagonal phase; (K, K, J) the row panel; (K, I, K)
/// the column panel; (K, I, J) the remainder — the classic blocked
/// schedule falls out of one helper because the panel always reads
/// A[i][k] and B[k][j] straight from the matrix, which at each phase are
/// exactly the blocks the schedule requires to be final (or the block
/// being updated, for the self-referencing diagonal/panel phases).
///
/// Skips: rows with no finite off-diagonal bound can neither contribute
/// (row K empty => B[k][j] infinite for all j != k, and B[k][k] = 0
/// relaxes nothing) nor improve (row I empty => A[i][k] infinite), and
/// closure never adds a first finite bound to an empty row, so the
/// occupancy bitmap taken at entry stays valid throughout. I == K is
/// skipped because A[k][k] = 0 on feasible systems makes it a no-op, and
/// it is the one pairing where RowI would alias RowK.
void panel(std::int64_t *M, std::size_t Stride, const std::uint8_t *Occ,
           unsigned KLo, unsigned KHi, unsigned ILo, unsigned IHi,
           unsigned JLo, unsigned JHi) {
  for (unsigned K = KLo; K < KHi; ++K) {
    if (!Occ[K])
      continue;
    const std::int64_t *RowK = M + static_cast<std::size_t>(K) * Stride;
    for (unsigned I = ILo; I < IHi; ++I) {
      if (I == K || !Occ[I])
        continue;
      std::int64_t *RowI = M + static_cast<std::size_t>(I) * Stride;
      std::int64_t BIK = RowI[K];
      if (BIK >= DbmInfinity)
        continue;
      minPlusRow(RowI, RowK, BIK, JLo, JHi);
    }
  }
}

} // namespace

bool kernel::fullCloseDense(DenseDbmStorage &D) {
  const unsigned N = D.size();
  std::int64_t *M = D.rows();
  const std::size_t Stride = D.rowStride();
  const std::uint8_t *Occ = D.rowOccupancy();
  constexpr unsigned T = ClosureTile;

  for (unsigned KB = 0; KB < N; KB += T) {
    // Deadline/memory poll per outer k-panel, the blocked counterpart of
    // the reference kernel's per-k checkpoint.
    budgetCheckpoint();
    const unsigned KE = std::min(KB + T, N);
    // Phase 1: the diagonal tile closes over itself.
    panel(M, Stride, Occ, KB, KE, KB, KE, KB, KE);
    // Phase 2: row panels (diagonal tile is the A operand).
    for (unsigned JB = 0; JB < N; JB += T)
      if (JB != KB)
        panel(M, Stride, Occ, KB, KE, KB, KE, JB, std::min(JB + T, N));
    // Phase 3: column panels (diagonal tile is the B operand).
    for (unsigned IB = 0; IB < N; IB += T)
      if (IB != KB)
        panel(M, Stride, Occ, KB, KE, IB, std::min(IB + T, N), KB, KE);
    // Phase 4: remainder tiles (row/column panels are the operands).
    for (unsigned IB = 0; IB < N; IB += T) {
      if (IB == KB)
        continue;
      const unsigned IE = std::min(IB + T, N);
      for (unsigned JB = 0; JB < N; JB += T)
        if (JB != KB)
          panel(M, Stride, Occ, KB, KE, IB, IE, JB, std::min(JB + T, N));
    }
  }

  for (unsigned I = 0; I < N; ++I)
    if (M[static_cast<std::size_t>(I) * Stride + I] < 0)
      return false;
  return true;
}

bool kernel::closeAfterEdgeDense(DenseDbmStorage &D, unsigned I, unsigned J) {
  const unsigned N = D.size();
  std::int64_t *M = D.rows();
  const std::size_t Stride = D.rowStride();
  const std::uint8_t *Occ = D.rowOccupancy();

  const std::int64_t *RowJ = M + static_cast<std::size_t>(J) * Stride;
  std::int64_t C = M[static_cast<std::size_t>(I) * Stride + J];
  std::int64_t JI = RowJ[I];
  if (JI < DbmInfinity && C < DbmInfinity && JI + C < 0)
    return false;

  for (unsigned A = 0; A < N; ++A) {
    // Row A only improves through a finite A->I bound, so unoccupied rows
    // cannot change; A == J is a no-op (J->I->J >= 0 was just checked)
    // and the one aliasing pairing.
    if (A == J || !Occ[A])
      continue;
    std::int64_t *RowA = M + static_cast<std::size_t>(A) * Stride;
    std::int64_t AI = RowA[I];
    if (AI >= DbmInfinity)
      continue;
    std::int64_t AIC = dbmAdd(AI, C);
    if (AIC >= DbmInfinity)
      continue; // dbmAdd saturates: nothing can improve through it.
    minPlusRow(RowA, RowJ, AIC, 0, N);
  }
  return true;
}

unsigned kernel::firstRowTightenedThroughDense(const DenseDbmStorage &D,
                                               unsigned I) {
  const unsigned N = D.size();
  const std::size_t Stride = D.rowStride();
  const std::uint8_t *Occ = D.rowOccupancy();
  const std::int64_t *RowI = D.rows() + static_cast<std::size_t>(I) * Stride;
  for (unsigned A = 0; A < N; ++A) {
    if (A == I || !Occ[A])
      continue;
    const std::int64_t *RowA = D.rows() + static_cast<std::size_t>(A) * Stride;
    std::int64_t AI = RowA[I];
    if (AI < DbmInfinity && minPlusRowTightens(RowA, RowI, AI, N))
      return A;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Join
//===----------------------------------------------------------------------===//

void kernel::joinRef(const DbmStorage &A, const SlotMap &MapA,
                     const DbmStorage &B, const SlotMap &MapB,
                     DbmStorage &Out) {
  unsigned N = static_cast<unsigned>(MapA.size());
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      Out.set(I, J,
              std::max(boundThrough(A, MapA, I, J),
                       boundThrough(B, MapB, I, J)));
}

namespace {

/// Row-wise max of two rows over the same variable list; returns how many
/// entries of the result are finite.
inline unsigned maxRow(std::int64_t *__restrict Out,
                       const std::int64_t *__restrict RowA,
                       const std::int64_t *__restrict RowB, unsigned N) {
  unsigned Finite = 0;
  for (unsigned J = 0; J < N; ++J) {
    std::int64_t V = RowA[J] < RowB[J] ? RowB[J] : RowA[J];
    Out[J] = V;
    Finite += V < DbmInfinity;
  }
  return Finite;
}

/// Row-wise max through the union maps; a column either operand lacks is
/// unconstrained. Returns how many entries of the result are finite.
inline unsigned maxRowMapped(std::int64_t *__restrict Out,
                             const std::int64_t *__restrict RowA,
                             const int *__restrict MapA,
                             const std::int64_t *__restrict RowB,
                             const int *__restrict MapB, unsigned N) {
  unsigned Finite = 0;
  for (unsigned J = 0; J < N; ++J) {
    int SA = MapA[J], SB = MapB[J];
    std::int64_t V = DbmInfinity;
    if (SA >= 0 && SB >= 0)
      V = std::max(RowA[SA], RowB[SB]);
    Out[J] = V;
    Finite += V < DbmInfinity;
  }
  return Finite;
}

} // namespace

void kernel::joinDense(const DenseDbmStorage &A, const SlotMap &MapA,
                       const DenseDbmStorage &B, const SlotMap &MapB,
                       DenseDbmStorage &Out) {
  const unsigned N = Out.size();
  const std::size_t StrideA = A.rowStride(), StrideB = B.rowStride(),
                    StrideOut = Out.rowStride();
  const std::uint8_t *OccA = A.rowOccupancy(), *OccB = B.rowOccupancy();
  std::uint8_t *OccOut = Out.rowOccupancy();

  bool Identity = A.size() == N && B.size() == N;
  for (unsigned U = 0; U < N && Identity; ++U)
    Identity = MapA[U] == static_cast<int>(U) && MapB[U] == static_cast<int>(U);

  for (unsigned I = 0; I < N; ++I) {
    std::int64_t *Row = Out.rows() + I * StrideOut;
    const int SA = MapA[I], SB = MapB[I];
    const std::int64_t *RowA =
        SA >= 0 ? A.rows() + static_cast<std::size_t>(SA) * StrideA : nullptr;
    const std::int64_t *RowB =
        SB >= 0 ? B.rows() + static_cast<std::size_t>(SB) * StrideB : nullptr;
    if (!RowA || !RowB || !OccA[SA] || !OccB[SB]) {
      // One side is unconstrained off the diagonal (the variable is absent,
      // or its row has no finite bound), so the max is too.
      std::fill_n(Row, N, DbmInfinity);
      Row[I] = std::max(RowA ? RowA[SA] : 0, RowB ? RowB[SB] : 0);
      OccOut[I] = 0;
      continue;
    }
    unsigned Finite = Identity ? maxRow(Row, RowA, RowB, N)
                               : maxRowMapped(Row, RowA, MapA.data(), RowB,
                                              MapB.data(), N);
    OccOut[I] = Finite > (Row[I] < DbmInfinity ? 1u : 0u);
  }
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

bool kernel::fullClose(DbmStorage &M) {
  if (DenseDbmStorage *D = M.asDense())
    return fullCloseDense(*D);
  return fullCloseRef(M);
}

bool kernel::closeAfterEdge(DbmStorage &M, unsigned I, unsigned J) {
  if (DenseDbmStorage *D = M.asDense())
    return closeAfterEdgeDense(*D, I, J);
  return closeAfterEdgeRef(M, I, J);
}

unsigned kernel::firstRowTightenedThrough(const DbmStorage &M, unsigned I) {
  if (const DenseDbmStorage *D = M.asDense())
    return firstRowTightenedThroughDense(*D, I);
  return firstRowTightenedThroughRef(M, I);
}

void kernel::join(const DbmStorage &A, const SlotMap &MapA,
                  const DbmStorage &B, const SlotMap &MapB, DbmStorage &Out) {
  const DenseDbmStorage *DA = A.asDense();
  const DenseDbmStorage *DB = B.asDense();
  DenseDbmStorage *DOut = Out.asDense();
  if (DA && DB && DOut)
    joinDense(*DA, MapA, *DB, MapB, *DOut);
  else
    joinRef(A, MapA, B, MapB, Out);
}
