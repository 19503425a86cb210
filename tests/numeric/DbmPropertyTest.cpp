//===- tests/numeric/DbmPropertyTest.cpp - Randomized lattice laws -------------===//
//
// Property tests over randomly generated constraint graphs: the domain
// operations must satisfy the abstract-interpretation laws the pCFG
// engine relies on (closure soundness, join as upper bound, meet as lower
// bound, widening stability, havoc monotonicity). Uses a deterministic
// xorshift generator so failures are reproducible.
//
//===----------------------------------------------------------------------===//

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
    Next.assign("x", LinearExpr("x", static_cast<std::int64_t>(
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
  LinearExpr Var(X, 0);
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

INSTANTIATE_TEST_SUITE_P(Seeds, DbmPropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 987654));

} // namespace
