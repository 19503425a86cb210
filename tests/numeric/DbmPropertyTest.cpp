//===- tests/numeric/DbmPropertyTest.cpp - Randomized lattice laws -------------===//
//
// Property tests over randomly generated constraint graphs: the domain
// operations must satisfy the abstract-interpretation laws the pCFG
// engine relies on (closure soundness, join as upper bound, meet as lower
// bound, widening stability, havoc monotonicity). Uses a deterministic
// xorshift generator so failures are reproducible.
//
//===----------------------------------------------------------------------===//

#include "numeric/ClosureKernel.h"
#include "numeric/ConstraintGraph.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace csdf;

namespace {

class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed | 1) {}

  std::uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }

  std::int64_t range(std::int64_t Lo, std::int64_t Hi) {
    return Lo + static_cast<std::int64_t>(next() %
                                          static_cast<std::uint64_t>(
                                              Hi - Lo + 1));
  }

private:
  std::uint64_t State;
};

std::string varName(int I) { return "v" + std::to_string(I); }

std::vector<std::string> sortedVarNames(const ConstraintGraph &G) {
  std::vector<std::string> Names = G.varNames();
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// Builds a random feasible-ish graph over NumVars variables.
ConstraintGraph randomGraph(Rng &R, int NumVars, int NumEdges,
                            DbmBackend Backend) {
  ConstraintGraph G(Backend);
  for (int E = 0; E < NumEdges; ++E) {
    int A = static_cast<int>(R.range(0, NumVars - 1));
    int B = static_cast<int>(R.range(0, NumVars - 1));
    if (A == B)
      continue;
    // Bias toward non-negative bounds so most graphs stay feasible.
    G.addLE(varName(A), varName(B), R.range(-1, 6));
  }
  return G;
}

/// A concrete assignment satisfying... we instead check laws relationally
/// via implies(), which is the graph's own entailment; closure soundness
/// is checked by sampling entailed facts.
class DbmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DbmPropertyTest, JoinIsUpperBound) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 8, DbmBackend::Dense);
    ConstraintGraph B = randomGraph(R, 5, 8, DbmBackend::Dense);
    ConstraintGraph J = A;
    J.joinWith(B);
    EXPECT_TRUE(A.implies(J)) << "A must refine join(A,B)";
    EXPECT_TRUE(B.implies(J)) << "B must refine join(A,B)";
  }
}

TEST_P(DbmPropertyTest, JoinIsCommutativeUpToEquivalence) {
  Rng R(GetParam() + 100);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 4, 7, DbmBackend::Dense);
    ConstraintGraph B = randomGraph(R, 4, 7, DbmBackend::Dense);
    ConstraintGraph AB = A;
    AB.joinWith(B);
    ConstraintGraph BA = B;
    BA.joinWith(A);
    EXPECT_TRUE(AB.equals(BA));
  }
}

TEST_P(DbmPropertyTest, MeetIsLowerBound) {
  Rng R(GetParam() + 200);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 6, DbmBackend::Dense);
    ConstraintGraph B = randomGraph(R, 5, 6, DbmBackend::Dense);
    ConstraintGraph M = A;
    M.meetWith(B);
    EXPECT_TRUE(M.implies(A));
    EXPECT_TRUE(M.implies(B));
  }
}

TEST_P(DbmPropertyTest, WideningIsUpperBoundOfOldState) {
  Rng R(GetParam() + 300);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph Old = randomGraph(R, 5, 8, DbmBackend::Dense);
    ConstraintGraph New = randomGraph(R, 5, 8, DbmBackend::Dense);
    ConstraintGraph W = Old;
    W.widenWith(New);
    EXPECT_TRUE(Old.implies(W));
    EXPECT_TRUE(New.implies(W));
  }
}

TEST_P(DbmPropertyTest, WideningChainStabilizes) {
  // Repeated widening against ever-weaker states must reach a fixpoint
  // quickly (thresholds add at most a constant number of extra steps).
  Rng R(GetParam() + 400);
  ConstraintGraph State(DbmBackend::Dense);
  State.assign("x", LinearExpr(0));
  State.addLowerBound("n", 4);
  int Steps = 0;
  for (; Steps < 20; ++Steps) {
    ConstraintGraph Next = State;
    Next.assign("x", Next.form("x", static_cast<std::int64_t>(
                                        R.range(1, 3))));
    ConstraintGraph W = State;
    W.widenWith(Next);
    if (W.equals(State))
      break;
    State = W;
  }
  EXPECT_LT(Steps, 10) << "widening chain too long";
}

TEST_P(DbmPropertyTest, BackendsAgreeOnEntailment) {
  Rng RD(GetParam() + 500);
  Rng RM(GetParam() + 500);
  for (int Trial = 0; Trial < 10; ++Trial) {
    ConstraintGraph D = randomGraph(RD, 5, 9, DbmBackend::Dense);
    ConstraintGraph M = randomGraph(RM, 5, 9, DbmBackend::MapBased);
    EXPECT_EQ(D.isFeasible(), M.isFeasible());
    for (int A = 0; A < 5; ++A)
      for (int B = 0; B < 5; ++B) {
        if (A == B)
          continue;
        EXPECT_EQ(D.bestBound(varName(A), varName(B)),
                  M.bestBound(varName(A), varName(B)))
            << varName(A) << " vs " << varName(B);
      }
  }
}

TEST_P(DbmPropertyTest, HavocWeakens) {
  Rng R(GetParam() + 600);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 8, DbmBackend::Dense);
    if (!A.isFeasible())
      continue;
    ConstraintGraph H = A;
    H.havoc(varName(static_cast<int>(R.range(0, 4))));
    EXPECT_TRUE(A.implies(H));
  }
}

TEST_P(DbmPropertyTest, RemoveVarPreservesOtherEntailments) {
  Rng R(GetParam() + 700);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 9, DbmBackend::Dense);
    if (!A.isFeasible())
      continue;
    ConstraintGraph P = A;
    P.removeVar(varName(2));
    for (int X : {0, 1, 3, 4})
      for (int Y : {0, 1, 3, 4}) {
        if (X == Y)
          continue;
        EXPECT_EQ(A.bestBound(varName(X), varName(Y)),
                  P.bestBound(varName(X), varName(Y)));
      }
  }
}

/// Victim name lists for removeVars: empty, random subsets, duplicates,
/// names absent from the graph, and the first and last slots.
std::vector<std::vector<std::string>>
victimSets(Rng &R, const std::vector<std::string> &Names, int NumVars) {
  std::vector<std::vector<std::string>> Sets;
  Sets.push_back({});
  Sets.push_back({Names.front()});
  Sets.push_back({Names.back()});
  Sets.push_back({Names.back(), Names.front()});
  Sets.push_back(Names);
  Sets.push_back({"absent", "v" + std::to_string(NumVars + 3)});
  for (int Trial = 0; Trial < 6; ++Trial) {
    std::vector<std::string> Pick;
    for (const std::string &Name : Names)
      if (R.range(0, 2) == 0)
        Pick.push_back(Name);
    if (!Pick.empty() && R.range(0, 1) == 0)
      Pick.push_back(Pick.front()); // Duplicate.
    if (R.range(0, 1) == 0)
      Pick.insert(Pick.begin(), "absent");
    Sets.push_back(std::move(Pick));
  }
  return Sets;
}

/// A random graph for projection tests: randomGraph's difference edges
/// plus a few constant bounds, so the zero slot's row and column carry
/// finite entries too. With \p Contradict a negative cycle through v0 and
/// v1 makes it infeasible.
ConstraintGraph projectionGraph(Rng &R, int NumVars, DbmBackend Backend,
                                bool Contradict) {
  ConstraintGraph G = randomGraph(R, NumVars, 12, Backend);
  for (int B = 0; B < 3; ++B) {
    std::string V = varName(static_cast<int>(R.range(0, NumVars - 1)));
    if (R.range(0, 1) == 0)
      G.addUpperBound(V, R.range(0, 9));
    else
      G.addLowerBound(V, R.range(-9, 0));
  }
  if (Contradict) {
    G.addLE(varName(0), varName(1), -1);
    G.addLE(varName(1), varName(0), -1);
  }
  return G;
}

/// The tightest constant bounds {upper, lower} on \p X that \p G entails,
/// found by bisection over a window wider than any bound projectionGraph
/// can derive; nullopt where none holds inside the window.
std::pair<std::optional<std::int64_t>, std::optional<std::int64_t>>
constBounds(const ConstraintGraph &G, const std::string &X) {
  const std::int64_t Window = 128;
  auto Tightest = [&](auto Proves) -> std::optional<std::int64_t> {
    if (!Proves(Window))
      return std::nullopt;
    std::int64_t Lo = -Window - 1, Hi = Window; // !Proves(Lo), Proves(Hi)
    if (Proves(Lo))
      return Lo;
    while (Hi - Lo > 1) {
      std::int64_t Mid = Lo + (Hi - Lo) / 2;
      (Proves(Mid) ? Hi : Lo) = Mid;
    }
    return Hi;
  };
  LinearExpr Var = G.form(X);
  auto Upper = Tightest([&](std::int64_t C) {
    return G.provesLE(Var, LinearExpr(C));
  });
  auto NegLower = Tightest([&](std::int64_t C) {
    return G.provesLE(LinearExpr(-C), Var);
  });
  if (NegLower)
    NegLower = -*NegLower;
  return {Upper, NegLower};
}

TEST_P(DbmPropertyTest, RemoveVarsMatchesSequentialRemoval) {
  // Projection must keep exactly the survivors' closed bounds. The oracle
  // is the unprojected graph itself, closed: every bound between two
  // survivors (and between a survivor and the zero slot) must be what it
  // was, and an infeasible graph must stay infeasible. Batch removal must
  // also agree with removing the same names one at a time.
  Rng R(GetParam() + 800);
  for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
    for (int Trial = 0; Trial < 10; ++Trial) {
      const int NumVars = 7;
      const bool Contradict = Trial % 5 == 4;
      // Every projection starts from a freshly built, never-closed copy
      // of the same graph, so removal must do its own closing.
      const Rng Start = R;
      auto Build = [&]() {
        Rng Again = Start;
        return projectionGraph(Again, NumVars, Backend, Contradict);
      };
      const ConstraintGraph Original =
          projectionGraph(R, NumVars, Backend, Contradict);
      if (Contradict) {
        ASSERT_FALSE(Original.isFeasible());
      }
      std::vector<std::string> Names = Original.varNames();
      for (const std::vector<std::string> &Victims :
           victimSets(R, Names, NumVars)) {
        std::vector<std::string> Survivors;
        for (const std::string &Name : Names)
          if (!std::count(Victims.begin(), Victims.end(), Name))
            Survivors.push_back(Name);

        ConstraintGraph Batch = Build();
        Batch.removeVars(Victims);
        ConstraintGraph Seq = Build();
        for (const std::string &Name : Victims)
          Seq.removeVar(Name);

        ASSERT_EQ(Batch.varNames(), Survivors);
        ASSERT_EQ(Seq.varNames(), Survivors);
        EXPECT_EQ(Batch.isFeasible(), Original.isFeasible());
        EXPECT_EQ(Seq.isFeasible(), Original.isFeasible());
        EXPECT_TRUE(Batch.equals(Seq));
        for (const std::string &X : Survivors) {
          EXPECT_EQ(constBounds(Batch, X), constBounds(Original, X)) << X;
          for (const std::string &Y : Survivors) {
            if (X == Y)
              continue;
            EXPECT_EQ(Batch.bestBound(X, Y), Original.bestBound(X, Y))
                << "projection changed " << X << " vs " << Y;
            EXPECT_EQ(Seq.bestBound(X, Y), Original.bestBound(X, Y))
                << "sequential projection changed " << X << " vs " << Y;
          }
        }
      }
    }
  }
}

TEST_P(DbmPropertyTest, RemoveVarsKeepsStorageExact) {
  // Storage level: the compacted matrix is the survivors' submatrix, both
  // backends agree, and after a projection the dense occupancy bitmap is
  // exact — a bit is clear iff its row has no finite off-diagonal bound —
  // even when stale bits were set beforehand.
  Rng R(GetParam() + 900);
  for (int Trial = 0; Trial < 20; ++Trial) {
    const unsigned N = static_cast<unsigned>(R.range(1, 12));
    DenseDbmStorage D;
    MapDbmStorage M;
    D.resize(N);
    M.resize(N);
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J) {
        std::int64_t Bound = DbmInfinity;
        if (I == J)
          Bound = 0;
        else if (R.range(0, 3) == 0)
          Bound = R.range(-4, 9);
        D.set(I, J, Bound);
        M.set(I, J, Bound);
        if (I != J && R.range(0, 5) == 0) {
          // Leave a stale occupancy bit behind.
          D.set(I, J, 1);
          D.set(I, J, Bound);
        }
      }
    std::vector<unsigned> Victims, Keep;
    for (unsigned I = 0; I < N; ++I)
      (R.range(0, 2) == 0 ? Victims : Keep).push_back(I);
    if (Trial % 5 == 0) { // Always cover the first and last slots.
      Victims = {0, N - 1};
      Victims.erase(std::unique(Victims.begin(), Victims.end()),
                    Victims.end());
      Keep.clear();
      for (unsigned I = 1; I + 1 < N; ++I)
        Keep.push_back(I);
    }
    std::vector<std::vector<std::int64_t>> Before(
        N, std::vector<std::int64_t>(N));
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J)
        Before[I][J] = D.get(I, J);

    D.removeVars(Victims);
    M.removeVars(Victims);
    ASSERT_EQ(D.size(), Keep.size());
    ASSERT_EQ(M.size(), Keep.size());
    for (unsigned I = 0; I < Keep.size(); ++I) {
      bool AnyFinite = false;
      for (unsigned J = 0; J < Keep.size(); ++J) {
        EXPECT_EQ(D.get(I, J), Before[Keep[I]][Keep[J]]);
        EXPECT_EQ(M.get(I, J), D.get(I, J));
        AnyFinite |= I != J && D.get(I, J) < DbmInfinity;
      }
      // An empty victim set leaves the storage untouched, stale bits and
      // all; the one-sided contract still holds.
      if (Victims.empty()) {
        EXPECT_TRUE(D.rowOccupancy()[I] || !AnyFinite) << "row " << I;
      } else {
        EXPECT_EQ(D.rowOccupancy()[I] != 0, AnyFinite) << "row " << I;
      }
    }
  }
}

/// A random matrix over \p N slots, closed by the reference kernel: sparse
/// enough that some rows stay unoccupied, grown to its size in steps so
/// its row stride differs from \p N, and made infeasible (a negative cycle
/// through slots 0 and N-1) with \p Contradict.
DenseDbmStorage closedStorage(Rng &R, unsigned N, bool Contradict) {
  DenseDbmStorage D;
  for (unsigned Size = 1; Size <= N; Size += 3)
    D.resize(Size);
  D.resize(N);
  for (unsigned I = 0; I < N; ++I)
    D.set(I, I, 0);
  for (unsigned E = 0; E < N; ++E) {
    unsigned I = static_cast<unsigned>(R.range(0, N - 1));
    unsigned J = static_cast<unsigned>(R.range(0, N - 1));
    if (I != J)
      D.set(I, J, R.range(-2, 9));
  }
  if (Contradict && N > 1) {
    D.set(0, N - 1, -1);
    D.set(N - 1, 0, -1);
  }
  kernel::fullCloseRef(D);
  return D;
}

/// Union slot maps for a join of an \p NA-slot and an \p NB-slot operand:
/// the first operand's slots come first, in order (as in joinWith); the
/// second's zero slot is the union's, some of its other slots alias
/// random slots of the first, and the rest extend the union.
std::pair<kernel::SlotMap, kernel::SlotMap> unionMaps(Rng &R, unsigned NA,
                                                      unsigned NB) {
  kernel::SlotMap MapA(NA), MapB(NA, -1);
  for (unsigned I = 0; I < NA; ++I)
    MapA[I] = static_cast<int>(I);
  std::vector<unsigned> Free;
  for (unsigned I = 1; I < NA; ++I)
    Free.push_back(I);
  MapB[0] = 0;
  for (unsigned S = 1; S < NB; ++S) {
    if (!Free.empty() && R.range(0, 1) == 0) {
      std::size_t Pick = static_cast<std::size_t>(
          R.range(0, static_cast<std::int64_t>(Free.size()) - 1));
      MapB[Free[Pick]] = static_cast<int>(S);
      Free.erase(Free.begin() + static_cast<long>(Pick));
    } else {
      MapA.push_back(-1);
      MapB.push_back(static_cast<int>(S));
    }
  }
  return {MapA, MapB};
}

TEST_P(DbmPropertyTest, FlatJoinMatchesReference) {
  // The flat join must equal the reference boundThrough loop entry for
  // entry, on overlapping, disjoint and identical variable lists and on
  // infeasible operands, and leave every row's occupancy byte exact. A
  // variable one operand lacks is unconstrained there: the join keeps only
  // its diagonal.
  Rng R(GetParam() + 1000);
  for (int Trial = 0; Trial < 40; ++Trial) {
    const unsigned NA = static_cast<unsigned>(R.range(1, 10));
    const bool Same = Trial % 4 == 0;
    const unsigned NB = Same ? NA : static_cast<unsigned>(R.range(1, 10));
    DenseDbmStorage A = closedStorage(R, NA, Trial % 7 == 3);
    DenseDbmStorage B = closedStorage(R, NB, Trial % 9 == 5);
    auto [MapA, MapB] = unionMaps(R, NA, NB);
    if (Same)
      for (unsigned I = 0; I < NA; ++I)
        MapA[I] = MapB[I] = static_cast<int>(I);
    const unsigned U = static_cast<unsigned>(MapA.size());

    DenseDbmStorage Flat;
    Flat.resize(U);
    kernel::joinDense(A, MapA, B, MapB, Flat);
    MapDbmStorage Ref;
    Ref.resize(U);
    kernel::joinRef(A, MapA, B, MapB, Ref);

    for (unsigned I = 0; I < U; ++I) {
      bool AnyFinite = false;
      for (unsigned J = 0; J < U; ++J) {
        ASSERT_EQ(Flat.get(I, J), Ref.get(I, J))
            << "trial " << Trial << " entry (" << I << ", " << J << ")";
        AnyFinite |= I != J && Flat.get(I, J) < DbmInfinity;
      }
      EXPECT_EQ(Flat.rowOccupancy()[I] != 0, AnyFinite) << "row " << I;
      // One-sided variables: 0 on the diagonal and DbmInfinity elsewhere
      // from the side that lacks them.
      if (MapA[I] < 0 || MapB[I] < 0) {
        const DbmStorage &Has = MapA[I] < 0 ? B : A;
        int Slot = MapA[I] < 0 ? MapB[I] : MapA[I];
        EXPECT_EQ(Flat.get(I, I),
                  std::max<std::int64_t>(Has.get(Slot, Slot), 0));
        for (unsigned J = 0; J < U; ++J)
          if (J != I) {
            EXPECT_EQ(Flat.get(I, J), DbmInfinity) << I << ", " << J;
            EXPECT_EQ(Flat.get(J, I), DbmInfinity) << J << ", " << I;
          }
      }
    }
  }
}

/// A random graph over a random subset of v0..v7 plus constant bounds.
ConstraintGraph subsetGraph(Rng &R, DbmBackend Backend, SymbolTablePtr Syms) {
  ConstraintGraph G(Backend, &StatsRegistry::global(), std::move(Syms));
  std::vector<int> Vars;
  for (int V = 0; V < 8; ++V)
    if (R.range(0, 1) == 0)
      Vars.push_back(V);
  if (Vars.size() < 2)
    Vars = {0, 3};
  auto Pick = [&] {
    return varName(Vars[static_cast<std::size_t>(R.range(
        0, static_cast<std::int64_t>(Vars.size()) - 1))]);
  };
  for (int E = 0; E < 6; ++E) {
    std::string A = Pick(), B = Pick();
    if (A != B)
      G.addLE(A, B, R.range(-1, 6));
  }
  G.addUpperBound(Pick(), R.range(0, 9));
  return G;
}

TEST_P(DbmPropertyTest, JoinAgreesAcrossBackendsAndTables) {
  // Graph level: the dense backend (flat join) and the map backend
  // (reference join) produce the same union, slot order and bounds, also
  // when the operands use different symbol tables and when one side is
  // infeasible.
  Rng R(GetParam() + 1100);
  for (int Trial = 0; Trial < 20; ++Trial) {
    const bool SharedTable = Trial % 2 == 0;
    const Rng Start = R;
    std::string Results[2];
    std::vector<std::string> Names[2];
    for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
      Rng Again = Start;
      auto TA = std::make_shared<SymbolTable>();
      auto TB = SharedTable ? TA : std::make_shared<SymbolTable>();
      ConstraintGraph A = subsetGraph(Again, Backend, TA);
      ConstraintGraph B = subsetGraph(Again, Backend, TB);
      ConstraintGraph &Bottom = Trial % 5 == 4 ? B : A;
      if (Trial % 5 >= 3) {
        Bottom.addLE("v0", "v1", -1);
        Bottom.addLE("v1", "v0", -1);
      }
      A.joinWith(B);
      int Side = Backend == DbmBackend::Dense ? 0 : 1;
      Results[Side] = A.str();
      Names[Side] = A.varNames();
    }
    EXPECT_EQ(Results[0], Results[1]) << "trial " << Trial;
    EXPECT_EQ(Names[0], Names[1]) << "trial " << Trial;
    R.next();
  }
}

//===----------------------------------------------------------------------===//
// Copy-on-write: fused copies on shared handles
//===----------------------------------------------------------------------===//

/// Builds and drops a dense graph with a finite bound between every pair
/// of its \p NumVars variables, so the thread's arena holds its buffers,
/// stale bounds and all, for the next dense matrices of those sizes.
void leaveWideBuffersBehind(int NumVars) {
  ConstraintGraph Wide(DbmBackend::Dense);
  for (int A = 0; A < NumVars; ++A)
    for (int B = 0; B < NumVars; ++B)
      if (A != B)
        Wide.addLE("wide" + std::to_string(A), "wide" + std::to_string(B),
                   A - B + 1);
  Wide.close();
}

TEST_P(DbmPropertyTest, SharedGrowthMatchesMapBackend) {
  // Adding a variable through a handle that shares its matrix copies and
  // grows the matrix in one pass (DbmStorage::grownClone). Every growth
  // here happens on a freshly shared handle, on cold and warm matrices,
  // within and past the dense row stride, over buffers recycled from a
  // wider graph. The dense results must equal the map backend's, and so
  // must every handle the grown graph was shared with: growth leaves the
  // sharer's matrix untouched.
  Rng R(GetParam() + 1200);
  for (int Trial = 0; Trial < 12; ++Trial) {
    const int NumVars = static_cast<int>(R.range(1, 10));
    const int Extra = static_cast<int>(R.range(1, 20));
    const bool Warm = Trial % 2 == 1;
    const Rng Start = R;
    std::vector<std::string> Images[2];
    for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
      leaveWideBuffersBehind(24);
      Rng Again = Start;
      ConstraintGraph G = projectionGraph(Again, NumVars, Backend, false);
      if (Warm)
        G.close();
      std::vector<ConstraintGraph> Sharers;
      for (int E = 0; E < Extra; ++E) {
        Sharers.push_back(G);
        ASSERT_TRUE(G.sharesStorage());
        std::string New = "w" + std::to_string(E);
        if (Again.range(0, 1) == 0)
          G.addLE(New, varName(static_cast<int>(Again.range(0, NumVars - 1))),
                  Again.range(-1, 6));
        else
          G.addUpperBound(New, Again.range(0, 9));
        EXPECT_FALSE(G.sharesStorage());
      }
      std::vector<std::string> &Image =
          Images[Backend == DbmBackend::Dense ? 0 : 1];
      Image.push_back(G.str());
      for (const ConstraintGraph &S : Sharers)
        Image.push_back(S.str());
    }
    EXPECT_EQ(Images[0], Images[1]) << "trial " << Trial;
    R.next();
  }
}

TEST_P(DbmPropertyTest, SharedProjectionMatchesMapBackend) {
  // Projecting through a handle that shares its matrix copies only the
  // survivors (DbmStorage::projectedClone). Victim sets cover the first
  // and last slots, every variable but the zero slot, and random subsets,
  // on feasible and infeasible graphs over recycled buffers; the results
  // must equal the map backend's and the sharer must keep its matrix.
  Rng R(GetParam() + 1300);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const int NumVars = static_cast<int>(R.range(2, 20));
    const bool Contradict = Trial % 5 == 4;
    const Rng Start = R;
    std::vector<std::string> Images[2];
    for (DbmBackend Backend : {DbmBackend::Dense, DbmBackend::MapBased}) {
      leaveWideBuffersBehind(24);
      Rng Again = Start;
      ConstraintGraph G = projectionGraph(Again, NumVars, Backend, Contradict);
      std::vector<std::string> &Image =
          Images[Backend == DbmBackend::Dense ? 0 : 1];
      for (const std::vector<std::string> &Victims :
           victimSets(Again, G.varNames(), NumVars)) {
        ConstraintGraph P = G;
        P.removeVars(Victims);
        Image.push_back(P.str());
        for (const std::string &Name : P.varNames())
          Image.push_back(Name);
        Image.push_back(G.str());
      }
    }
    EXPECT_EQ(Images[0], Images[1]) << "trial " << Trial;
    R.next();
  }
}

/// Every cell of \p A equals the cell of \p B.
void expectSameCells(const DbmStorage &A, const DbmStorage &B,
                     const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (unsigned I = 0; I < A.size(); ++I)
    for (unsigned J = 0; J < A.size(); ++J)
      ASSERT_EQ(A.get(I, J), B.get(I, J))
          << What << " entry (" << I << ", " << J << ")";
}

/// Whether each row's occupancy byte keeps the bitmap contract: never
/// clear on a row with a finite off-diagonal bound, and with \p Exact
/// never set on one without.
void expectOccupancy(const DenseDbmStorage &D, bool Exact,
                     const std::string &What) {
  for (unsigned I = 0; I < D.size(); ++I) {
    bool AnyFinite = false;
    for (unsigned J = 0; J < D.size(); ++J)
      AnyFinite |= I != J && D.get(I, J) < DbmInfinity;
    if (Exact) {
      EXPECT_EQ(D.rowOccupancy()[I] != 0, AnyFinite) << What << " row " << I;
    } else {
      EXPECT_TRUE(D.rowOccupancy()[I] || !AnyFinite) << What << " row " << I;
    }
  }
}

TEST_P(DbmPropertyTest, FusedClonesMatchCloneThenMutate) {
  // Storage level: the dense copy constructor, grownClone and
  // projectedClone equal the map backend's copies cell for cell, keep the
  // occupancy contract, and leave the source untouched; the fused copies
  // hold exactly the bytes of clone() followed by the mutation (the
  // budget's peak depends on it). Half the sources were projected first,
  // so their stride is wider than their block and stale bounds sit right
  // past it.
  Rng R(GetParam() + 1400);
  for (int Trial = 0; Trial < 30; ++Trial) {
    unsigned N = static_cast<unsigned>(R.range(1, 20));
    DenseDbmStorage D;
    MapDbmStorage M;
    D.resize(N);
    M.resize(N);
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J) {
        std::int64_t Bound = I == J              ? 0
                             : R.range(0, 2) == 0 ? R.range(-4, 9)
                                                  : DbmInfinity;
        D.set(I, J, Bound);
        M.set(I, J, Bound);
      }
    if (Trial % 2 == 0 && N > 1) {
      std::vector<unsigned> Shrink;
      for (unsigned I = 0; I < N; ++I)
        if (R.range(0, 2) == 0)
          Shrink.push_back(I);
      D.removeVars(Shrink);
      M.removeVars(Shrink);
      N = D.size();
    }
    const std::vector<std::int64_t> Before = dbmSnapshot(D);
    const std::uint64_t Bytes = D.byteSize();

    DenseDbmStorage Copy = D;
    expectSameCells(Copy, M, "copy");

    const unsigned NewN = N + static_cast<unsigned>(R.range(0, 20));
    std::unique_ptr<DbmStorage> Grown = D.grownClone(NewN);
    expectSameCells(*Grown, *M.grownClone(NewN), "grown");
    expectOccupancy(*Grown->asDense(), false, "grown");
    std::unique_ptr<DbmStorage> Ref = D.clone();
    Ref->resize(NewN);
    EXPECT_EQ(Grown->byteSize(), Ref->byteSize());

    std::vector<std::vector<unsigned>> VictimSets = {{0}, {N - 1}, {}};
    for (unsigned I = 1; I < N; ++I)
      VictimSets.back().push_back(I); // All but the zero slot.
    VictimSets.emplace_back();
    for (unsigned I = 0; I < N; ++I)
      if (R.range(0, 1) == 0)
        VictimSets.back().push_back(I);
    for (const std::vector<unsigned> &Victims : VictimSets) {
      std::unique_ptr<DbmStorage> Projected = D.projectedClone(Victims);
      expectSameCells(*Projected, *M.projectedClone(Victims), "projected");
      expectOccupancy(*Projected->asDense(), true, "projected");
      std::unique_ptr<DbmStorage> RefP = D.clone();
      RefP->removeVars(Victims);
      EXPECT_EQ(Projected->byteSize(), RefP->byteSize());
    }
    EXPECT_EQ(dbmSnapshot(D), Before) << "a copy changed its source";
    EXPECT_EQ(D.byteSize(), Bytes);
  }
}

/// The Floyd–Warshall oracle for NamespacedOpsMatchOracle: the matrix a
/// ConstraintGraph holds, over names, in plain vectors. Queries close a
/// copy. Like the graph, a widening leaves an iterate that the next
/// widening reads as it stands, and an operation that needs a closed
/// matrix closes it for good.
class Oracle {
public:
  using Matrix = std::vector<std::vector<std::int64_t>>;

  int find(const std::string &Name) const {
    auto It = std::find(Names.begin(), Names.end(), Name);
    return It == Names.end() ? -1 : static_cast<int>(It - Names.begin());
  }

  unsigned ensure(const std::string &Name) {
    if (int I = find(Name); I >= 0)
      return static_cast<unsigned>(I);
    Names.push_back(Name);
    for (std::vector<std::int64_t> &Row : M)
      Row.push_back(DbmInfinity);
    M.emplace_back(Names.size(), DbmInfinity);
    M.back().back() = 0;
    return static_cast<unsigned>(Names.size() - 1);
  }

  void addLE(const std::string &A, const std::string &B, std::int64_t C) {
    unsigned I = ensure(A), J = ensure(B);
    M[I][J] = std::min(M[I][J], C);
  }

  /// The closure, or nullopt when the constraints are infeasible.
  std::optional<Matrix> closed() const {
    Matrix C = M;
    const std::size_t N = C.size();
    for (std::size_t K = 0; K < N; ++K)
      for (std::size_t I = 0; I < N; ++I)
        for (std::size_t J = 0; J < N; ++J)
          C[I][J] = std::min(C[I][J], dbmAdd(C[I][K], C[K][J]));
    for (std::size_t I = 0; I < N; ++I)
      if (C[I][I] < 0)
        return std::nullopt;
    return C;
  }

  bool feasible() const { return closed().has_value(); }

  void close() {
    M = *closed();
    Iterate = false;
  }

  /// The closed bound of `A <= B + c`; DbmInfinity when a name is absent.
  std::int64_t bound(const Matrix &C, const std::string &A,
                     const std::string &B) const {
    int I = find(A), J = find(B);
    if (I < 0 || J < 0)
      return A == B ? 0 : DbmInfinity;
    return C[I][J];
  }

  void join(const Oracle &O) {
    if (!O.feasible())
      return;
    close();
    Matrix OC = *O.closed();
    for (const std::string &Name : O.Names)
      ensure(Name);
    for (std::size_t I = 0; I < Names.size(); ++I)
      for (std::size_t J = 0; J < Names.size(); ++J)
        M[I][J] = std::max(M[I][J], O.bound(OC, Names[I], Names[J]));
  }

  void widen(const Oracle &O) {
    if (!O.feasible())
      return;
    if (!Iterate)
      close();
    Matrix OC = *O.closed();
    for (std::size_t I = 0; I < Names.size(); ++I)
      for (std::size_t J = 0; J < Names.size(); ++J) {
        std::int64_t Theirs = O.bound(OC, Names[I], Names[J]);
        if (I == J || M[I][J] >= DbmInfinity || Theirs <= M[I][J])
          continue;
        std::int64_t Widened = DbmInfinity;
        for (std::int64_t T : {-1, 0, 1})
          if (Theirs <= T) {
            Widened = T;
            break;
          }
        M[I][J] = Widened;
      }
    Iterate = true;
  }

  /// `<To>.<b> == <From>.<b>` for each `<From>.<b>` (anchors skipped when
  /// asked), as a copy of the row and column of `<From>.<b>`.
  void copyNs(const std::string &From, const std::string &To,
              bool SkipAnchors) {
    const std::size_t N = Names.size();
    for (std::size_t S = 0; S < N; ++S) {
      std::string_view Name = Names[S];
      if (!inNamespace(Name, From) ||
          (SkipAnchors && isAnchorName(Name.substr(From.size() + 1))))
        continue;
      unsigned C = ensure(To + std::string(Name.substr(From.size())));
      for (std::size_t R = 0; R < Names.size(); ++R)
        M[R][C] = M[R][S];
      M[C] = M[S];
    }
  }

  void moveNs(const std::string &From, const std::string &To) {
    std::vector<std::string> Anchors;
    for (std::string &Name : Names)
      if (inNamespace(Name, From)) {
        if (isAnchorName(std::string_view(Name).substr(From.size() + 1)))
          Anchors.push_back(Name);
        else
          Name = To + Name.substr(From.size());
      }
    project(Anchors);
  }

  void project(const std::vector<std::string> &Victims) {
    std::vector<std::size_t> Keep;
    for (std::size_t I = 0; I < Names.size(); ++I)
      if (!std::count(Victims.begin(), Victims.end(), Names[I]))
        Keep.push_back(I);
    if (Keep.size() == Names.size())
      return;
    close();
    Oracle Kept;
    Kept.Names.clear();
    Kept.M.assign(Keep.size(), std::vector<std::int64_t>(Keep.size()));
    for (std::size_t I = 0; I < Keep.size(); ++I) {
      Kept.Names.push_back(Names[Keep[I]]);
      for (std::size_t J = 0; J < Keep.size(); ++J)
        Kept.M[I][J] = M[Keep[I]][Keep[J]];
    }
    Names = std::move(Kept.Names);
    M = std::move(Kept.M);
  }

  std::vector<std::string> Names{"$0"};
  Matrix M{{0}};
  bool Iterate = false;
};

/// The graph's answer to `A <= B + c` in the oracle's terms, where `$0`
/// is the zero variable.
std::int64_t graphBound(const ConstraintGraph &G, const std::string &A,
                        const std::string &B) {
  std::optional<std::int64_t> Bound;
  if (A == "$0")
    Bound = constBounds(G, B).second; // `0 <= B + c`: c is minus B's floor.
  else if (B == "$0")
    Bound = constBounds(G, A).first;
  else
    Bound = G.bestBound(A, B);
  if (A == "$0" && Bound)
    Bound = -*Bound;
  return Bound ? *Bound : DbmInfinity;
}

TEST_P(DbmPropertyTest, NamespacedOpsMatchOracle) {
  // Random sequences of add / join / widen / copy / move / project on
  // namespaced graphs, each applied to a dense graph, a map graph and the
  // oracle. After every step a copy of each graph (so that querying it
  // leaves a widening iterate as widened) must agree with the oracle's
  // closure on feasibility, on every bound, and on equality with the
  // previous step's state.
  static const char *const Pool[] = {"p1.x", "p1.y", "p1.lo$", "p2.x",
                                     "p2.ub$", "np", "g"};
  Rng R(GetParam() + 1000);
  unsigned Widenings = 0, ReDerived = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    auto Syms = std::make_shared<SymbolTable>();
    std::vector<ConstraintGraph> Gs = {
        ConstraintGraph(DbmBackend::Dense, nullptr, Syms),
        ConstraintGraph(DbmBackend::MapBased, nullptr, Syms)};
    Oracle O;
    auto Pick = [&]() -> std::string {
      if (O.Names.size() > 1 && R.range(0, 1) == 0)
        return O.Names[static_cast<std::size_t>(
            R.range(1, static_cast<std::int64_t>(O.Names.size()) - 1))];
      return Pool[R.range(0, std::size(Pool) - 1)];
    };
    /// A random graph over the pool, built alike as graph and oracle.
    auto Other = [&](DbmBackend Backend, Oracle &OO) {
      ConstraintGraph G(Backend, nullptr, Syms);
      Rng Again = R;
      for (int E = 0; E < 5; ++E) {
        std::string A = Pool[Again.range(0, std::size(Pool) - 1)];
        std::string B = Pool[Again.range(0, std::size(Pool) - 1)];
        if (A == B)
          continue;
        std::int64_t C = Again.range(0, 6);
        G.addLE(A, B, C);
        OO.addLE(A, B, C);
      }
      return G;
    };
    for (int E = 0; E < 4; ++E) {
      std::string A = Pick(), B = Pick();
      if (A == B)
        continue;
      std::int64_t C = R.range(0, 6);
      for (ConstraintGraph &G : Gs)
        G.addLE(A, B, C);
      O.addLE(A, B, C);
    }
    std::vector<ConstraintGraph> Prev = Gs;
    Oracle PrevO = O;
    for (int Step = 0; Step < 14; ++Step) {
      int Op = static_cast<int>(R.range(0, 6));
      std::string Fresh = "c" + std::to_string(Step);
      std::string From = R.range(0, 1) ? "p1" : "p2";
      switch (Op) {
      case 0: { // add
        std::string A = Pick(), B = Pick();
        std::int64_t C = R.range(-2, 6);
        if (A == B)
          break;
        for (ConstraintGraph &G : Gs)
          G.addLE(A, B, C);
        O.addLE(A, B, C);
        break;
      }
      case 1: { // join
        for (ConstraintGraph &G : Gs) {
          Oracle Unused;
          G.joinWith(Other(G.backend(), Unused));
        }
        Oracle OO;
        Other(DbmBackend::Dense, OO);
        O.join(OO);
        break;
      }
      case 2: { // widen by the join of the state and a random graph
        for (ConstraintGraph &G : Gs) {
          Oracle Unused;
          ConstraintGraph J = G;
          J.joinWith(Other(G.backend(), Unused));
          G.widenWith(J);
        }
        Oracle OO, J = O;
        Other(DbmBackend::Dense, OO);
        J.join(OO);
        O.widen(J);
        ++Widenings;
        break;
      }
      case 3: { // widen by the join with the previous state, as a loop does
        for (std::size_t K = 0; K < Gs.size(); ++K) {
          ConstraintGraph J = Gs[K];
          J.joinWith(Prev[K]);
          Gs[K].widenWith(J);
        }
        Oracle J = O;
        J.join(PrevO);
        O.widen(J);
        ++Widenings;
        break;
      }
      case 4: { // copy
        bool Skip = R.range(0, 1) == 0;
        for (ConstraintGraph &G : Gs)
          G.copyNamespace(From, Fresh, Skip);
        O.copyNs(From, Fresh, Skip);
        break;
      }
      case 5: { // move
        for (ConstraintGraph &G : Gs)
          G.moveNamespace(From, Fresh);
        O.moveNs(From, Fresh);
        break;
      }
      default: { // project
        std::vector<std::string> Victims = {Pick()};
        for (ConstraintGraph &G : Gs)
          G.removeVars(Victims);
        O.project(Victims);
        break;
      }
      }
      R.next(); // Other() replays R without advancing it.

      auto Closed = O.closed();
      auto PrevClosed = PrevO.closed();
      for (std::size_t K = 0; K < Gs.size(); ++K) {
        SCOPED_TRACE(testing::Message() << "trial " << Trial << " step "
                                        << Step << " op " << Op
                                        << " backend " << K);
        ConstraintGraph Query = Gs[K];
        ASSERT_EQ(Query.isFeasible(), Closed.has_value());
        if (!Closed)
          continue;
        std::vector<std::string> Sorted = O.Names;
        Sorted.erase(Sorted.begin());
        std::sort(Sorted.begin(), Sorted.end());
        EXPECT_EQ(sortedVarNames(Query), Sorted);
        for (const std::string &A : O.Names)
          for (const std::string &B : O.Names)
            if (A != B) {
              std::int64_t Want = O.bound(*Closed, A, B);
              EXPECT_EQ(graphBound(Query, A, B), Want) << A << " <= " << B;
              ReDerived += O.Iterate && Want < DbmInfinity &&
                           O.M[static_cast<std::size_t>(O.find(A))]
                              [static_cast<std::size_t>(O.find(B))] !=
                               Want;
            }
        if (PrevClosed) {
          bool Same = true;
          std::vector<std::string> Union = O.Names;
          for (const std::string &Name : PrevO.Names)
            if (!std::count(Union.begin(), Union.end(), Name))
              Union.push_back(Name);
          for (const std::string &A : Union)
            for (const std::string &B : Union)
              Same &= A == B || O.bound(*Closed, A, B) ==
                                    PrevO.bound(*PrevClosed, A, B);
          ConstraintGraph PrevQuery = Prev[K];
          EXPECT_EQ(Query.equals(PrevQuery), Same);
        }
      }
      if (!Closed)
        break;
      Prev = Gs;
      PrevO = O;
    }
  }
  // The sequences do widen, and queries do see bounds the iterates lack.
  EXPECT_GT(Widenings, 0u);
  EXPECT_GT(ReDerived, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbmPropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 987654));

} // namespace
