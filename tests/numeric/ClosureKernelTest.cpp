//===- tests/numeric/ClosureKernelTest.cpp --------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Property suite for the v2 flat closure kernels. The v1 naive triple
// loop (kernel::fullCloseRef / closeAfterEdgeRef, virtual get/set) is
// kept as the test-only oracle: on every random matrix the blocked/
// sparse flat kernel must agree with it entry for entry whenever the
// system is feasible, and must report infeasibility on exactly the same
// inputs. (On infeasible inputs the matrix *content* may differ — the
// engine never reads a matrix once isFeasible() is false, and both
// kernels' callers discard it.)
//
//===----------------------------------------------------------------------===//

#include "numeric/ClosureKernel.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

using namespace csdf;

namespace {

/// Snapshot of the logical N x N contents, layout-independent.
std::vector<std::int64_t> contents(const DbmStorage &M) {
  std::vector<std::int64_t> Out;
  unsigned N = M.size();
  Out.reserve(static_cast<std::size_t>(N) * N);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      Out.push_back(M.get(I, J));
  return Out;
}

/// Dense matrix initialized like ConstraintGraph does it: zero diagonal,
/// everything else unconstrained. Grown one variable at a time to also
/// exercise the capacity-stride resize path the engine uses.
DenseDbmStorage makeDense(unsigned N) {
  DenseDbmStorage M;
  for (unsigned I = 1; I <= N; ++I)
    M.resize(I);
  for (unsigned I = 0; I < N; ++I)
    M.set(I, I, 0);
  return M;
}

/// Random constraint matrix over N variables. Density is the probability
/// an off-diagonal entry carries a finite bound; Lo/Hi the bound range.
DenseDbmStorage randomMatrix(std::mt19937 &Rng, unsigned N, double Density,
                             std::int64_t Lo, std::int64_t Hi) {
  DenseDbmStorage M = makeDense(N);
  std::uniform_real_distribution<double> Coin(0.0, 1.0);
  std::uniform_int_distribution<std::int64_t> Bound(Lo, Hi);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      if (I != J && Coin(Rng) < Density)
        M.set(I, J, Bound(Rng));
  return M;
}

/// Runs the flat kernel and the naive oracle on identical copies and
/// checks agreement. Returns the shared feasibility verdict.
bool checkAgainstOracle(const DenseDbmStorage &Input) {
  DenseDbmStorage Flat = Input;
  auto RefPtr = Input.clone();

  bool FlatFeasible = kernel::fullCloseDense(Flat);
  bool RefFeasible = kernel::fullCloseRef(*RefPtr);

  EXPECT_EQ(FlatFeasible, RefFeasible);
  if (FlatFeasible && RefFeasible) {
    EXPECT_EQ(contents(Flat), contents(*RefPtr));
  }
  return FlatFeasible && RefFeasible;
}

//===----------------------------------------------------------------------===//
// Full closure vs oracle
//===----------------------------------------------------------------------===//

// Sizes straddling the tile boundary: empty, single, tile-1, tile,
// tile+1, and a multi-tile matrix.
const unsigned KernelSizes[] = {0,
                                1,
                                kernel::ClosureTile - 1,
                                kernel::ClosureTile,
                                kernel::ClosureTile + 1,
                                64};

TEST(ClosureKernelTest, RandomDenseMatricesMatchOracle) {
  std::mt19937 Rng(12345);
  unsigned Feasible = 0, Infeasible = 0;
  for (unsigned N : KernelSizes)
    for (int Round = 0; Round < 8; ++Round) {
      // Mixed-sign bounds at moderate density: a healthy share of both
      // feasible and negative-cycle systems.
      DenseDbmStorage M = randomMatrix(Rng, N, 0.3, -20, 40);
      (checkAgainstOracle(M) ? Feasible : Infeasible)++;
    }
  // The sweep must actually exercise both verdicts (trivially true for
  // N=0/1 rounds being feasible; the negative bounds supply the rest).
  EXPECT_GT(Feasible, 0u);
  EXPECT_GT(Infeasible, 0u);
}

TEST(ClosureKernelTest, SparseMatricesMatchOracle) {
  std::mt19937 Rng(777);
  for (unsigned N : KernelSizes)
    for (int Round = 0; Round < 4; ++Round) {
      // Mostly-unconstrained: most rows empty, so the occupancy skip is
      // the code path under test.
      DenseDbmStorage M = randomMatrix(Rng, N, 0.02, -5, 30);
      checkAgainstOracle(M);
    }
}

TEST(ClosureKernelTest, NonNegativeMatricesStayFeasible) {
  std::mt19937 Rng(4242);
  for (unsigned N : KernelSizes) {
    DenseDbmStorage M = randomMatrix(Rng, N, 0.5, 0, 100);
    EXPECT_TRUE(checkAgainstOracle(M));
  }
}

TEST(ClosureKernelTest, DetectsNegativeCycle) {
  // v0 <= v1 - 3, v1 <= v0 + 2: cycle weight -1.
  DenseDbmStorage M = makeDense(8);
  M.set(0, 1, -3);
  M.set(1, 0, 2);
  DenseDbmStorage Ref = M;
  EXPECT_FALSE(kernel::fullCloseDense(M));
  EXPECT_FALSE(kernel::fullCloseRef(Ref));
}

TEST(ClosureKernelTest, SaturationAtInfinityEdges) {
  // Bounds near DbmInfinity must saturate, not wrap: a finite negative
  // plus an unconstrained entry stays unconstrained, and chained huge
  // bounds clamp to DbmInfinity exactly like dbmAdd.
  std::mt19937 Rng(99);
  for (int Round = 0; Round < 8; ++Round) {
    DenseDbmStorage M = makeDense(40);
    std::uniform_int_distribution<unsigned> Var(0, 39);
    std::uniform_int_distribution<int> Kind(0, 2);
    for (int E = 0; E < 60; ++E) {
      unsigned I = Var(Rng), J = Var(Rng);
      if (I == J)
        continue;
      switch (Kind(Rng)) {
      case 0:
        M.set(I, J, DbmInfinity - 1); // one below the saturation point
        break;
      case 1:
        M.set(I, J, DbmInfinity / 2); // sums cross DbmInfinity
        break;
      default:
        M.set(I, J, -7);
        break;
      }
    }
    if (!checkAgainstOracle(M))
      continue;
    // Saturated closure must never exceed the sentinel.
    DenseDbmStorage Closed = M;
    ASSERT_TRUE(kernel::fullCloseDense(Closed));
    for (std::int64_t V : contents(Closed))
      EXPECT_LE(V, DbmInfinity);
  }
}

TEST(ClosureKernelTest, ClosureIsIdempotent) {
  std::mt19937 Rng(31337);
  for (unsigned N : KernelSizes) {
    DenseDbmStorage M = randomMatrix(Rng, N, 0.3, 0, 50);
    ASSERT_TRUE(kernel::fullCloseDense(M));
    DenseDbmStorage Again = M;
    ASSERT_TRUE(kernel::fullCloseDense(Again));
    EXPECT_EQ(contents(M), contents(Again));
  }
}

//===----------------------------------------------------------------------===//
// Incremental repair vs oracle
//===----------------------------------------------------------------------===//

TEST(ClosureKernelTest, EdgeRepairMatchesOracle) {
  std::mt19937 Rng(2026);
  for (unsigned N : {2u, kernel::ClosureTile, 64u}) {
    for (int Round = 0; Round < 8; ++Round) {
      // Start from a closed feasible matrix, then tighten one edge — the
      // warm-path pattern ConstraintGraph::addEdge produces.
      DenseDbmStorage Base = randomMatrix(Rng, N, 0.3, 0, 50);
      ASSERT_TRUE(kernel::fullCloseDense(Base));

      std::uniform_int_distribution<unsigned> Var(0, N - 1);
      unsigned I = Var(Rng), J = Var(Rng);
      if (I == J)
        continue;
      std::int64_t Tight =
          Round < 6 ? Base.get(I, J) / 2 - 1 : -30; // sometimes infeasible
      if (Tight >= Base.get(I, J))
        continue; // addEdge only repairs on an actual tightening
      Base.set(I, J, Tight);

      DenseDbmStorage Flat = Base;
      auto Ref = Base.clone();
      bool FlatFeasible = kernel::closeAfterEdgeDense(Flat, I, J);
      bool RefFeasible = kernel::closeAfterEdgeRef(*Ref, I, J);
      EXPECT_EQ(FlatFeasible, RefFeasible);
      if (FlatFeasible) {
        EXPECT_EQ(contents(Flat), contents(*Ref));
        // Repair of a single tightened edge must equal a full re-closure.
        DenseDbmStorage Full = Base;
        ASSERT_TRUE(kernel::fullCloseDense(Full));
        EXPECT_EQ(contents(Flat), contents(Full));
      }
    }
  }
}

TEST(ClosureKernelTest, EdgeRepairDetectsNegativeCycle) {
  DenseDbmStorage M = makeDense(16);
  M.set(3, 7, 5);
  ASSERT_TRUE(kernel::fullCloseDense(M));
  M.set(7, 3, -6); // closes the cycle at weight -1
  DenseDbmStorage Ref = M;
  EXPECT_FALSE(kernel::closeAfterEdgeDense(M, 7, 3));
  EXPECT_FALSE(kernel::closeAfterEdgeRef(Ref, 7, 3));
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

TEST(ClosureKernelTest, DispatchRoutesDenseToFlatKernel) {
  // fullClose on a DbmStorage& must behave identically whether the
  // dynamic type is dense (flat kernel) or map (reference kernel).
  std::mt19937 Rng(5150);
  DenseDbmStorage Dense = randomMatrix(Rng, 48, 0.3, -10, 40);
  MapDbmStorage Map;
  Map.resize(48);
  for (unsigned I = 0; I < 48; ++I)
    for (unsigned J = 0; J < 48; ++J)
      Map.set(I, J, Dense.get(I, J));

  bool DenseFeasible = kernel::fullClose(Dense);
  bool MapFeasible = kernel::fullClose(Map);
  EXPECT_EQ(DenseFeasible, MapFeasible);
  if (DenseFeasible) {
    EXPECT_EQ(contents(Dense), contents(Map));
  }
}

} // namespace
