//===- tests/numeric/CowInterningTest.cpp - COW / interning / memo tests -------===//
//
// Tests for the interned-variable, copy-on-write numeric core: SymbolTable
// id stability, CowDbm sharing and detach semantics, closure-memo hits,
// and property-style checks that removeVars / renameVars / equivalentForms
// preserve the closed form.
//
//===----------------------------------------------------------------------===//

#include "numeric/ConstraintGraph.h"

#include <gtest/gtest.h>

#include <thread>

using namespace csdf;

namespace {

//===----------------------------------------------------------------------===//
// SymbolTable
//===----------------------------------------------------------------------===//

TEST(SymbolTableTest, InternIsIdempotentAndDense) {
  SymbolTable T;
  VarId X = T.intern("x");
  VarId Y = T.intern("y");
  EXPECT_NE(X, Y);
  EXPECT_EQ(T.intern("x"), X);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.name(X), "x");
  EXPECT_EQ(T.name(Y), "y");
}

TEST(SymbolTableTest, LookupDoesNotCreate) {
  SymbolTable T;
  EXPECT_FALSE(T.lookup("ghost").has_value());
  VarId Id = T.intern("ghost");
  ASSERT_TRUE(T.lookup("ghost").has_value());
  EXPECT_EQ(*T.lookup("ghost"), Id);
}

TEST(SymbolTableTest, IdsSurviveLaterInterning) {
  SymbolTable T;
  VarId First = T.intern("a");
  for (int I = 0; I < 100; ++I)
    T.intern("v" + std::to_string(I));
  EXPECT_EQ(T.intern("a"), First);
  EXPECT_EQ(T.name(First), "a");
}

TEST(SymbolTableTest, GraphsShareOneTable) {
  auto Syms = std::make_shared<SymbolTable>();
  ConstraintGraph A(DbmBackend::Dense, &StatsRegistry::global(), Syms);
  ConstraintGraph B(DbmBackend::Dense, &StatsRegistry::global(), Syms);
  A.ensureVar("x");
  B.ensureVar("x");
  ASSERT_EQ(A.varIds().size(), 1u);
  ASSERT_EQ(B.varIds().size(), 1u);
  EXPECT_EQ(A.varIds()[0], B.varIds()[0]);
  EXPECT_EQ(&A.symbols(), &B.symbols());
}

//===----------------------------------------------------------------------===//
// Copy-on-write sharing
//===----------------------------------------------------------------------===//

class CowTest : public ::testing::TestWithParam<DbmBackend> {
protected:
  ConstraintGraph make() {
    return ConstraintGraph(GetParam(), &Stats, Syms, Memo);
  }
  StatsRegistry Stats;
  SymbolTablePtr Syms = std::make_shared<SymbolTable>();
  ClosureMemoPtr Memo; // Off unless a test opts in.
};

TEST_P(CowTest, CopySharesUntilMutation) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 3);
  ConstraintGraph B = A;
  EXPECT_TRUE(A.sharesStorage());
  EXPECT_TRUE(B.sharesStorage());
  EXPECT_EQ(Stats.counter("cg.cow.copies"), 1);
  EXPECT_EQ(Stats.counter("cg.cow.detaches"), 0);

  // Queries never detach.
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 3)));
  EXPECT_TRUE(B.sharesStorage());

  // First mutation detaches exactly once.
  B.addLE("x", "y", 1);
  EXPECT_EQ(Stats.counter("cg.cow.detaches"), 1);
  EXPECT_FALSE(A.sharesStorage());
  EXPECT_FALSE(B.sharesStorage());
}

TEST_P(CowTest, MutatingCopyLeavesOriginalIntact) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 5);
  ConstraintGraph B = A;
  B.addLE("x", "y", 1);
  B.addUpperBound("x", 0);
  // A still only knows x <= y + 5.
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 5)));
  EXPECT_FALSE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 1)));
  EXPECT_FALSE(A.provesLE(LinearExpr("x", 0), LinearExpr(0)));
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 1)));
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr(0)));
}

TEST_P(CowTest, ClosureThroughOneCopyIsVisibleToAll) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 1);
  A.addLE("y", "z", 1);
  ConstraintGraph B = A; // Shares the unclosed matrix.

  // Closing A closes the shared block; B must not pay again.
  A.close();
  std::int64_t ClosuresAfterA = Stats.counter("cg.closure.full.calls") +
                                Stats.counter("cg.closure.incr.calls");
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("z", 2)));
  EXPECT_EQ(Stats.counter("cg.closure.full.calls") +
                Stats.counter("cg.closure.incr.calls"),
            ClosuresAfterA);
}

TEST_P(CowTest, EnsureVarOnCopyDoesNotResizeOriginal) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 2);
  ConstraintGraph B = A;
  B.ensureVar("fresh");
  EXPECT_EQ(B.numVars(), 3u);
  EXPECT_EQ(A.numVars(), 2u);
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
}

TEST_P(CowTest, SelfAssignIsSafe) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 2);
  A = *&A;
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
}

TEST_P(CowTest, ChainedCopiesDetachIndependently) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 4);
  ConstraintGraph B = A;
  ConstraintGraph C = B;
  C.addLE("x", "y", 2);
  B.addLE("x", "y", 3);
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 4)));
  EXPECT_FALSE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 3)));
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 3)));
  EXPECT_FALSE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
  EXPECT_TRUE(C.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
}

TEST_P(CowTest, RemoveVarsOnSharedHandleDetachesOnce) {
  auto X = [](unsigned I) { return "x" + std::to_string(I); };
  for (unsigned Victims = 1; Victims <= 4; ++Victims) {
    ConstraintGraph A = make();
    for (unsigned I = 0; I < 4; ++I)
      A.addLE(X(I), X(I + 1), 1);
    std::vector<std::string> Names = A.varNames();
    ConstraintGraph B = A;
    std::int64_t Detaches = Stats.counter("cg.cow.detaches");

    B.removeVars(std::vector<std::string>(Names.begin(),
                                          Names.begin() + Victims));
    EXPECT_EQ(Stats.counter("cg.cow.detaches"), Detaches + 1)
        << Victims << " victims";
    EXPECT_EQ(B.numVars(), 5u - Victims);
    // The sibling keeps every variable and every bound.
    EXPECT_EQ(A.varNames(), Names);
    for (unsigned I = 0; I < 5; ++I)
      for (unsigned J = I + 1; J < 5; ++J)
        EXPECT_EQ(A.bestBound(X(I), X(J)), static_cast<std::int64_t>(J - I));
  }
}

TEST_P(CowTest, RemoveVarsOfAbsentNamesNeitherClosesNorDetaches) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 1);
  A.addLE("y", "z", 1);
  ConstraintGraph Other = make();
  Other.ensureVar("elsewhere"); // Interned, but not a variable of A.
  ConstraintGraph B = A;
  std::int64_t Closures = Stats.counter("cg.closure.full.calls") +
                          Stats.counter("cg.closure.incr.calls");
  std::int64_t Detaches = Stats.counter("cg.cow.detaches");

  B.removeVars({});
  B.removeVars({"ghost", "elsewhere", "ghost"});
  EXPECT_EQ(Stats.counter("cg.closure.full.calls") +
                Stats.counter("cg.closure.incr.calls"),
            Closures);
  EXPECT_EQ(Stats.counter("cg.cow.detaches"), Detaches);
  EXPECT_TRUE(B.sharesStorage());
  EXPECT_EQ(B.numVars(), 3u);
}

//===----------------------------------------------------------------------===//
// Closure memo
//===----------------------------------------------------------------------===//

class MemoTest : public ::testing::TestWithParam<DbmBackend> {
protected:
  ConstraintGraph make() {
    return ConstraintGraph(GetParam(), &Stats, Syms, Memo);
  }
  /// A graph whose close() takes the full-closure path: a cold matrix
  /// (never closed) batches every tightening after the first, so the next
  /// close is a full Floyd-Warshall the memo serves.
  ConstraintGraph makeNeedingFullClose(std::int64_t Seed) {
    ConstraintGraph G = make();
    G.addLE("a", "b", Seed);
    G.addLE("b", "c", Seed + 1);
    G.addLE("c", "d", Seed + 2);
    return G;
  }
  StatsRegistry Stats;
  SymbolTablePtr Syms = std::make_shared<SymbolTable>();
  ClosureMemoPtr Memo = std::make_shared<ClosureMemo>();
};

TEST_P(MemoTest, SecondIdenticalCloseHitsMemo) {
  ConstraintGraph A = makeNeedingFullClose(1);
  A.close();
  std::int64_t Misses = Stats.counter("cg.closure.memo.misses");
  std::int64_t Hits = Stats.counter("cg.closure.memo.hits");
  EXPECT_GT(Misses, 0);

  ConstraintGraph B = makeNeedingFullClose(1);
  B.close();
  EXPECT_GT(Stats.counter("cg.closure.memo.hits"), Hits);
  EXPECT_TRUE(A.equals(B));
}

TEST_P(MemoTest, DifferentConstraintsMissMemo) {
  ConstraintGraph A = makeNeedingFullClose(1);
  A.close();
  ConstraintGraph B = makeNeedingFullClose(7);
  B.close();
  EXPECT_EQ(Stats.counter("cg.closure.memo.hits"), 0);
  EXPECT_FALSE(A.equals(B));
}

TEST_P(MemoTest, MutatingAdoptedResultDoesNotCorruptMemo) {
  ConstraintGraph A = makeNeedingFullClose(1);
  A.close(); // Inserted into the memo.
  ConstraintGraph B = makeNeedingFullClose(1);
  B.close(); // Adopts the memoized block.
  B.addUpperBound("a", -100); // Must detach from the memo entry.

  ConstraintGraph C = makeNeedingFullClose(1);
  C.close(); // Hits the memo again; must match A, not B.
  EXPECT_TRUE(C.equals(A));
  EXPECT_FALSE(C.equals(B));
}

TEST_P(MemoTest, InfeasibleResultIsMemoizedCorrectly) {
  auto MakeInfeasible = [&]() {
    ConstraintGraph G = makeNeedingFullClose(1);
    ConstraintGraph H = make();
    H.addLE("a", "b", -5);
    H.addLE("b", "a", -5); // Cycle of weight -10.
    G.meetWith(H);
    return G;
  };
  ConstraintGraph A = MakeInfeasible();
  EXPECT_FALSE(A.isFeasible());
  ConstraintGraph B = MakeInfeasible();
  EXPECT_FALSE(B.isFeasible());
}

//===----------------------------------------------------------------------===//
// Property-style checks: mutations preserve the closed form
//===----------------------------------------------------------------------===//

class ClosedFormPropertyTest : public ::testing::TestWithParam<DbmBackend> {
protected:
  /// Deterministic pseudo-random graph over N named variables.
  ConstraintGraph randomGraph(unsigned N, std::uint64_t Seed) {
    ConstraintGraph G(GetParam(), &Stats);
    std::uint64_t State = Seed * 6364136223846793005ull + 1442695040888963407ull;
    auto Next = [&]() {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(State >> 33);
    };
    for (unsigned E = 0; E < 3 * N; ++E) {
      unsigned I = Next() % N;
      unsigned J = Next() % N;
      if (I == J)
        continue;
      // Non-negative weights keep the graph feasible.
      G.addLE(name(I), name(J), static_cast<std::int64_t>(Next() % 17));
    }
    return G;
  }
  static std::string name(unsigned I) { return "v" + std::to_string(I); }
  StatsRegistry Stats;
};

TEST_P(ClosedFormPropertyTest, RemoveVarPreservesRemainingBounds) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(6, Seed);
    ASSERT_TRUE(G.isFeasible());
    ConstraintGraph Before = G;
    G.removeVar(name(2));
    for (unsigned I = 0; I < 6; ++I) {
      for (unsigned J = 0; J < 6; ++J) {
        if (I == J || I == 2 || J == 2)
          continue;
        EXPECT_EQ(G.bestBound(name(I), name(J)),
                  Before.bestBound(name(I), name(J)))
            << "seed " << Seed << " pair v" << I << " v" << J;
      }
    }
  }
}

TEST_P(ClosedFormPropertyTest, RenameVarsPreservesBoundsUnderNewNames) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(5, Seed);
    ConstraintGraph Before = G;
    std::vector<std::pair<std::string, std::string>> Renames;
    for (unsigned I = 0; I < 5; ++I)
      Renames.emplace_back(name(I), "w" + std::to_string(I));
    G.renameVars(Renames);
    for (unsigned I = 0; I < 5; ++I) {
      for (unsigned J = 0; J < 5; ++J) {
        if (I == J)
          continue;
        EXPECT_EQ(G.bestBound("w" + std::to_string(I),
                              "w" + std::to_string(J)),
                  Before.bestBound(name(I), name(J)))
            << "seed " << Seed;
      }
    }
  }
}

TEST_P(ClosedFormPropertyTest, EquivalentFormsAreProvablyEqual) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(5, Seed);
    // Pin a couple of equalities so equivalentForms has something to find.
    G.addEQ(LinearExpr(name(0), 0), LinearExpr(name(1), 3));
    G.addEQ(LinearExpr(name(3), 0), LinearExpr(42));
    for (unsigned V = 0; V < 5; ++V) {
      LinearExpr E(name(V), 1);
      for (const LinearExpr &Form : G.equivalentForms(E))
        EXPECT_TRUE(G.provesEQ(E, Form))
            << "seed " << Seed << ": " << E.str() << " vs " << Form.str();
    }
  }
}

TEST_P(ClosedFormPropertyTest, ResolvedFormQueriesMatchStringQueries) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(5, Seed);
    for (unsigned I = 0; I < 5; ++I) {
      for (unsigned J = 0; J < 5; ++J) {
        for (std::int64_t C : {-3, 0, 3}) {
          LinearExpr L(name(I), 0), R(name(J), C);
          EXPECT_EQ(G.provesLE(G.resolve(L), G.resolve(R)),
                    G.provesLE(L, R))
              << "seed " << Seed;
        }
      }
    }
    // Forms mentioning unknown variables behave like the string path too.
    LinearExpr Unknown("never-seen", 0);
    EXPECT_EQ(G.provesLE(G.resolve(Unknown), G.resolve(LinearExpr(5))),
              G.provesLE(Unknown, LinearExpr(5)));
    EXPECT_EQ(G.provesLE(G.resolve(Unknown), G.resolve(Unknown)),
              G.provesLE(Unknown, Unknown));
  }
}

//===----------------------------------------------------------------------===//
// Thread-safe stats
//===----------------------------------------------------------------------===//

TEST(StatsThreadSafetyTest, ConcurrentCountersSumExactly) {
  StatsRegistry R;
  constexpr int Threads = 4;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&R]() {
      for (int I = 0; I < PerThread; ++I)
        R.addCounter("shared.counter");
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(R.counter("shared.counter"), Threads * PerThread);
}

INSTANTIATE_TEST_SUITE_P(Backends, CowTest,
                         ::testing::Values(DbmBackend::Dense,
                                           DbmBackend::MapBased));
INSTANTIATE_TEST_SUITE_P(Backends, MemoTest,
                         ::testing::Values(DbmBackend::Dense,
                                           DbmBackend::MapBased));
INSTANTIATE_TEST_SUITE_P(Backends, ClosedFormPropertyTest,
                         ::testing::Values(DbmBackend::Dense,
                                           DbmBackend::MapBased));

} // namespace
