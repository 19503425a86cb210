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

#include <algorithm>
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

TEST(SymbolTableTest, NamespaceMembershipIsAnExactPrefix) {
  EXPECT_TRUE(inNamespace("p1.x", "p1"));
  EXPECT_FALSE(inNamespace("p10.x", "p1"));
  EXPECT_FALSE(inNamespace("p1", "p1"));
  EXPECT_FALSE(inNamespace("q1.x", "p1"));
  EXPECT_EQ(namespaceOf("p1.lo$"), "p1");
  EXPECT_EQ(namespaceOf("np"), "");
  EXPECT_TRUE(isAnchorName("lo$"));
  EXPECT_FALSE(isAnchorName("x"));

  NamespaceMap Map("p1", "s4");
  EXPECT_EQ(Map.apply("p1.x"), "s4.x");
  EXPECT_EQ(Map.apply("p10.x"), "p10.x");
  EXPECT_EQ(Map.apply("p1"), "p1");
}

TEST(SymbolTableTest, RenamedIsMemoizedAndInternsNothingTwice) {
  SymbolTable T;
  VarId X = T.intern("p1.x");
  VarId Lo = T.intern("p1.lo$");
  VarId S4 = T.intern("s4");
  VarId Renamed = T.renamed(X, S4);
  EXPECT_EQ(T.name(Renamed), "s4.x");
  EXPECT_EQ(T.name(T.renamed(Lo, S4)), "s4.lo$");
  const std::size_t Size = T.size();
  EXPECT_EQ(T.renamed(X, S4), Renamed);
  EXPECT_EQ(T.size(), Size);
  // A rename agrees with interning the target name directly.
  EXPECT_EQ(T.intern("s4.x"), Renamed);
  EXPECT_EQ(T.size(), Size);
  // Renaming back is a different memo entry that finds the old id.
  EXPECT_EQ(T.renamed(Renamed, T.intern("p1")), X);
}

TEST(SymbolTableTest, ConcurrentRenamesAgree) {
  // One table may serve sessions on different threads: threads renaming
  // the same ids into the same namespaces must all get the same ids.
  SymbolTable T;
  std::vector<VarId> Ids;
  for (int I = 0; I < 64; ++I)
    Ids.push_back(T.intern("p0.v" + std::to_string(I)));
  constexpr int Threads = 4;
  constexpr int Namespaces = 8;
  std::vector<std::vector<VarId>> Got(Threads);
  std::vector<std::thread> Pool;
  for (int Th = 0; Th < Threads; ++Th)
    Pool.emplace_back([&, Th]() {
      for (int Round = 0; Round < 3; ++Round)
        for (int Ns = 0; Ns < Namespaces; ++Ns) {
          int N = (Ns + Th) % Namespaces; // Threads start apart.
          VarId NsId = T.intern("s" + std::to_string(N));
          for (VarId Id : Ids) {
            VarId R = T.renamed(Id, NsId);
            if (Round == 0)
              Got[Th].push_back(R);
            else if (T.name(R) != T.name(NsId) + T.name(Id).substr(2))
              Got[Th].push_back(InvalidVarId);
          }
        }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int Th = 0; Th < Threads; ++Th) {
    ASSERT_EQ(Got[Th].size(), Ids.size() * Namespaces);
    std::size_t K = 0;
    for (int Ns = 0; Ns < Namespaces; ++Ns) {
      int N = (Ns + Th) % Namespaces;
      for (std::size_t I = 0; I < Ids.size(); ++I, ++K)
        EXPECT_EQ(Got[Th][K], *T.lookup("s" + std::to_string(N) + ".v" +
                                        std::to_string(I)));
    }
  }
}

//===----------------------------------------------------------------------===//
// Namespace primitives on the constraint graph
//===----------------------------------------------------------------------===//

/// A random graph over namespaced variables: p1's and p10's, a bare `p1`,
/// a global `np`, and `$` anchor slots, in a seed-dependent slot order.
ConstraintGraph namespacedGraph(std::uint64_t Seed, StatsRegistry *Stats,
                                DbmBackend Backend = DbmBackend::Dense) {
  static const char *const Names[] = {"p1.x",  "p10.x", "p1",   "np",
                                      "p1.y",  "p1.lo$", "p2.x", "p10.lo$",
                                      "p1.ub$", "p2.y"};
  constexpr unsigned N = sizeof(Names) / sizeof(Names[0]);
  std::uint64_t S = Seed * 0x9E3779B97F4A7C15ull + 1;
  auto Next = [&]() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1Dull;
  };
  ConstraintGraph G(Backend, Stats);
  for (unsigned I = 0; I < N; ++I)
    G.ensureVar(Names[(I + Seed) % N]);
  for (unsigned E = 0; E < 12; ++E) {
    const char *A = Names[Next() % N];
    const char *B = Names[Next() % N];
    if (std::string(A) != B)
      G.addLE(A, B, static_cast<std::int64_t>(Next() % 9));
  }
  G.addUpperBound("np", 16);
  return G;
}

TEST(NamespaceTest, IdRenameMatchesStringRename) {
  for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ConstraintGraph ById = namespacedGraph(Seed, nullptr);
    ConstraintGraph ByName = ById;
    std::vector<std::pair<std::string, std::string>> Renames;
    for (const std::string &Name : ByName.varNames())
      if (Name.rfind("p1.", 0) == 0)
        Renames.emplace_back(Name, "s7." + Name.substr(3));
    ByName.renameVars(Renames);
    ConstraintGraph Repeat = ById;
    ById.renameNamespace("p1", "s7");
    EXPECT_EQ(ById.varNames(), ByName.varNames()) << "seed " << Seed;
    EXPECT_EQ(ById.str(), ByName.str()) << "seed " << Seed;
    EXPECT_TRUE(ById.hasVar("p10.x"));
    EXPECT_TRUE(ById.hasVar("p1"));
    EXPECT_FALSE(ById.hasVar("p1.x"));
    // The same rename again, on the same table, returns the same ids and
    // interns nothing.
    const std::size_t Interned = ById.symbols().size();
    Repeat.renameNamespace("p1", "s7");
    EXPECT_EQ(Repeat.varIds(), ById.varIds());
    EXPECT_EQ(Repeat.symbols().size(), Interned);
  }
}

TEST(NamespaceTest, SimultaneousRenameSwapsNamespaces) {
  ConstraintGraph G = namespacedGraph(3, nullptr);
  ConstraintGraph Oracle = G;
  Oracle.renameVars({{"p1.x", "p2.x"},
                     {"p1.y", "p2.y"},
                     {"p1.lo$", "p2.lo$"},
                     {"p1.ub$", "p2.ub$"},
                     {"p2.x", "p1.x"},
                     {"p2.y", "p1.y"}});
  NamespaceMap Swap("p1", "p2");
  Swap.add("p2", "p1");
  G.renameNamespaces(Swap);
  EXPECT_EQ(G.varNames(), Oracle.varNames());
  EXPECT_EQ(G.str(), Oracle.str());
}

TEST(NamespaceTest, RemoveNamespaceMatchesRemoveVars) {
  for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ConstraintGraph ById = namespacedGraph(Seed, nullptr);
    ConstraintGraph ByName = ById;
    ByName.removeVars({"p1.x", "p1.y", "p1.lo$", "p1.ub$"});
    ById.removeNamespace("p1");
    EXPECT_EQ(ById.varNames(), ByName.varNames());
    EXPECT_EQ(ById.str(), ByName.str());
    ByName.removeVars({"p10.lo$"});
    ById.removeVarsIf([](std::string_view Ns, std::string_view Base) {
      return Ns == "p10" && isAnchorName(Base);
    });
    EXPECT_EQ(ById.varNames(), ByName.varNames());
    EXPECT_EQ(ById.str(), ByName.str());
  }
}

TEST(NamespaceTest, CopyNamespaceMatchesAddEqWithoutClosing) {
  // The oracle is the per-variable addEQ loop, closed. On a closed graph
  // the row-and-column copy gives the same closed form and runs no
  // closure at all, on either backend.
  for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
    for (bool SkipAnchors : {true, false}) {
      for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
        SCOPED_TRACE(testing::Message()
                     << "backend " << static_cast<int>(Backend) << " skip "
                     << SkipAnchors << " seed " << Seed);
        StatsRegistry Stats;
        ConstraintGraph ById = namespacedGraph(Seed, &Stats, Backend);
        ConstraintGraph ByName = namespacedGraph(Seed, nullptr, Backend);
        ById.close();
        for (const std::string &Var : ByName.varNames()) {
          if (Var.rfind("p1.", 0) != 0)
            continue;
          std::string Base = Var.substr(3);
          if (SkipAnchors && Base.find('$') != std::string::npos)
            continue;
          ByName.addEQ(ByName.form("s9." + Base), ByName.form(Var));
        }
        const std::int64_t Full = Stats.counter("cg.closure.full.calls");
        const std::int64_t Incr = Stats.counter("cg.closure.incr.calls");
        ById.copyNamespace("p1", "s9", SkipAnchors);
        EXPECT_EQ(ById.varNames(), ByName.varNames());
        EXPECT_EQ(ById.str(), ByName.str());
        EXPECT_EQ(ById.hasVar("s9.lo$"), !SkipAnchors);
        EXPECT_FALSE(ById.hasVar("s9"));
        EXPECT_EQ(Stats.counter("cg.closure.full.calls"), Full);
        EXPECT_EQ(Stats.counter("cg.closure.incr.calls"), Incr);
      }
    }
  }
}

/// copyNamespace(From, To, true) then removeNamespace(From): the oracle.
ConstraintGraph copyThenDrop(ConstraintGraph G, const std::string &From,
                             const std::string &To) {
  G.copyNamespace(From, To, /*SkipAnchors=*/true);
  G.removeNamespace(From);
  return G;
}

std::vector<std::string> sortedNames(const ConstraintGraph &G) {
  std::vector<std::string> Names = G.varNames();
  std::sort(Names.begin(), Names.end());
  return Names;
}

TEST(NamespaceTest, MoveNamespaceIsRenameThenAnchorDrop) {
  for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
    for (std::uint64_t Seed = 1; Seed <= 16; ++Seed) {
      for (const char *From : {"p1", "p2", "p10", "p7"}) {
        SCOPED_TRACE(testing::Message()
                     << "backend " << static_cast<int>(Backend) << " seed "
                     << Seed << " from " << From);
        ConstraintGraph Moved = namespacedGraph(Seed, nullptr, Backend);
        Moved.close();
        ConstraintGraph Oracle = copyThenDrop(Moved, From, "s9");
        ConstraintGraph Renamed = Moved;
        Renamed.removeVarsIf([&](std::string_view Ns, std::string_view B) {
          return Ns == From && isAnchorName(B);
        });
        Renamed.renameNamespace(From, "s9");

        Moved.moveNamespace(From, "s9");
        EXPECT_EQ(Moved.varNames(), Renamed.varNames());
        EXPECT_EQ(Moved.str(), Renamed.str());
        EXPECT_EQ(Moved.isFeasible(), Oracle.isFeasible());
        EXPECT_TRUE(Moved.equals(Oracle));
        EXPECT_TRUE(Oracle.equals(Moved));
        EXPECT_EQ(sortedNames(Moved), sortedNames(Oracle));
        EXPECT_FALSE(Moved.hasVar(std::string(From) + ".x"));
      }
    }
  }
}

TEST(NamespaceTest, MoveNamespaceWithoutAnchorsNeverDetaches) {
  for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
    for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
      // `p2` has no anchors to project out: the move is a rename.
      StatsRegistry Stats;
      ConstraintGraph G = namespacedGraph(Seed, &Stats, Backend);
      G.close();
      ConstraintGraph Keep = G;
      const std::string Before = Keep.str();
      const std::int64_t Detaches = Stats.counter("cg.cow.detaches");
      const std::int64_t Full = Stats.counter("cg.closure.full.calls");
      const std::int64_t Incr = Stats.counter("cg.closure.incr.calls");
      G.moveNamespace("p2", "s9");
      EXPECT_EQ(Stats.counter("cg.cow.detaches"), Detaches);
      EXPECT_EQ(Stats.counter("cg.closure.full.calls"), Full);
      EXPECT_EQ(Stats.counter("cg.closure.incr.calls"), Incr);
      EXPECT_TRUE(G.sharesStorage());
      EXPECT_TRUE(G.hasVar("s9.x"));
      EXPECT_FALSE(G.hasVar("p2.x"));
      EXPECT_EQ(Keep.str(), Before);
    }
  }
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
  EXPECT_TRUE(B.provesLE(B.form("x", 0), B.form("y", 3)));
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
  EXPECT_TRUE(A.provesLE(A.form("x", 0), A.form("y", 5)));
  EXPECT_FALSE(A.provesLE(A.form("x", 0), A.form("y", 1)));
  EXPECT_FALSE(A.provesLE(A.form("x", 0), LinearExpr(0)));
  EXPECT_TRUE(B.provesLE(B.form("x", 0), B.form("y", 1)));
  EXPECT_TRUE(B.provesLE(B.form("x", 0), LinearExpr(0)));
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
  EXPECT_TRUE(B.provesLE(B.form("x", 0), B.form("z", 2)));
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
  EXPECT_TRUE(A.provesLE(A.form("x", 0), A.form("y", 2)));
}

TEST_P(CowTest, SelfAssignIsSafe) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 2);
  A = *&A;
  EXPECT_TRUE(A.provesLE(A.form("x", 0), A.form("y", 2)));
}

TEST_P(CowTest, ChainedCopiesDetachIndependently) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 4);
  ConstraintGraph B = A;
  ConstraintGraph C = B;
  C.addLE("x", "y", 2);
  B.addLE("x", "y", 3);
  EXPECT_TRUE(A.provesLE(A.form("x", 0), A.form("y", 4)));
  EXPECT_FALSE(A.provesLE(A.form("x", 0), A.form("y", 3)));
  EXPECT_TRUE(B.provesLE(B.form("x", 0), B.form("y", 3)));
  EXPECT_FALSE(B.provesLE(B.form("x", 0), B.form("y", 2)));
  EXPECT_TRUE(C.provesLE(C.form("x", 0), C.form("y", 2)));
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

TEST(DenseGraphTest, StatsSymbolsMemoConstructorIsDense) {
  // The constructor the engine seeds every analysis with: dense storage,
  // wired to the caller's stats, intern table and closure memo.
  StatsRegistry Stats;
  SymbolTablePtr Syms = std::make_shared<SymbolTable>();
  ClosureMemoPtr Memo = std::make_shared<ClosureMemo>();
  ConstraintGraph G(&Stats, Syms, Memo);
  EXPECT_EQ(G.backend(), DbmBackend::Dense);
  EXPECT_EQ(G.symbolsPtr(), Syms);
  G.addLE("a", "b", 1);
  G.addLE("b", "c", 2);
  G.addLE("c", "d", 3);
  G.close(); // Cold matrix: the full-closure path the memo serves.
  EXPECT_EQ(Stats.counter("cg.closure.memo.misses"), 1);
  ASSERT_EQ(Memo->size(), 1u);
  Memo->forEach([](std::uint64_t, DbmBackend Backend,
                   const std::vector<std::int64_t> &, const DbmShared &) {
    EXPECT_EQ(Backend, DbmBackend::Dense);
  });
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
    G.addEQ(G.form(name(0)), G.form(name(1), 3));
    G.addEQ(G.form(name(3)), LinearExpr(42));
    for (unsigned V = 0; V < 5; ++V) {
      LinearExpr E = G.form(name(V), 1);
      for (const LinearExpr &Form : G.equivalentForms(E))
        EXPECT_TRUE(G.provesEQ(E, Form))
            << "seed " << Seed << ": " << E.str(G.symbols()) << " vs "
            << Form.str(G.symbols());
    }
  }
}

TEST_P(ClosedFormPropertyTest, ResolvedFormQueriesMatchStringQueries) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(5, Seed);
    for (unsigned I = 0; I < 5; ++I) {
      for (unsigned J = 0; J < 5; ++J) {
        for (std::int64_t C : {-3, 0, 3}) {
          LinearExpr L = G.form(name(I)), R = G.form(name(J), C);
          EXPECT_EQ(G.provesLE(G.resolve(L), G.resolve(R)),
                    G.provesLE(L, R))
              << "seed " << Seed;
        }
      }
    }
    // Forms mentioning unknown variables behave like the unresolved path.
    LinearExpr Unknown = G.form("never-seen");
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
