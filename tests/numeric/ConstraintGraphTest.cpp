//===- tests/numeric/ConstraintGraphTest.cpp - DBM domain tests --------------===//

#include "numeric/ConstraintGraph.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

/// Both backends must behave identically; every test runs on both.
class ConstraintGraphTest : public ::testing::TestWithParam<DbmBackend> {
protected:
  ConstraintGraph make() { return ConstraintGraph(GetParam()); }
};

TEST_P(ConstraintGraphTest, EmptyGraphIsFeasibleTop) {
  ConstraintGraph G = make();
  EXPECT_TRUE(G.isFeasible());
  EXPECT_EQ(G.numVars(), 0u);
}

TEST_P(ConstraintGraphTest, TransitivityIsClosed) {
  ConstraintGraph G = make();
  G.addLE("a", "b", 1); // a <= b + 1
  G.addLE("b", "c", 2); // b <= c + 2
  EXPECT_TRUE(G.provesLE(G.form("a", 0), G.form("c", 3)));
  EXPECT_FALSE(G.provesLE(G.form("a", 0), G.form("c", 2)));
}

TEST_P(ConstraintGraphTest, ContradictionIsInfeasible) {
  ConstraintGraph G = make();
  G.addUpperBound("x", 3);
  G.addLowerBound("x", 5);
  EXPECT_FALSE(G.isFeasible());
}

TEST_P(ConstraintGraphTest, InfeasibleProvesEverything) {
  ConstraintGraph G = make();
  G.addUpperBound("x", 0);
  G.addLowerBound("x", 1);
  EXPECT_TRUE(G.provesLE(LinearExpr(100), LinearExpr(0)));
}

TEST_P(ConstraintGraphTest, ConstValueDetection) {
  ConstraintGraph G = make();
  G.addEQ(G.form("x", 0), LinearExpr(5));
  EXPECT_EQ(G.constValue("x"), 5);
  EXPECT_FALSE(G.constValue("y").has_value());
}

TEST_P(ConstraintGraphTest, EqualityPropagatesThroughChain) {
  ConstraintGraph G = make();
  G.addEQ(G.form("x", 0), G.form("y", 1)); // x = y + 1
  G.addEQ(G.form("y", 0), LinearExpr(4));
  EXPECT_EQ(G.constValue("x"), 5);
  EXPECT_EQ(G.offsetBetween("x", "y"), 1);
}

TEST_P(ConstraintGraphTest, SameVarComparisonsNeedNoGraph) {
  ConstraintGraph G = make();
  EXPECT_TRUE(G.provesLE(G.form("q", 1), G.form("q", 2)));
  EXPECT_FALSE(G.provesLE(G.form("q", 2), G.form("q", 1)));
}

TEST_P(ConstraintGraphTest, AssignConstant) {
  ConstraintGraph G = make();
  G.assign("x", LinearExpr(7));
  EXPECT_EQ(G.constValue("x"), 7);
  G.assign("x", LinearExpr(9));
  EXPECT_EQ(G.constValue("x"), 9);
}

TEST_P(ConstraintGraphTest, AssignVarPlusConst) {
  ConstraintGraph G = make();
  G.assign("y", LinearExpr(3));
  G.assign("x", G.form("y", 2));
  EXPECT_EQ(G.constValue("x"), 5);
  // Reassigning y must not retroactively change x.
  G.assign("y", LinearExpr(100));
  EXPECT_EQ(G.constValue("x"), 5);
}

TEST_P(ConstraintGraphTest, SelfIncrementShiftsExactly) {
  ConstraintGraph G = make();
  G.assign("i", LinearExpr(1));
  G.assign("i", G.form("i", 1)); // i := i + 1
  EXPECT_EQ(G.constValue("i"), 2);
}

TEST_P(ConstraintGraphTest, SelfIncrementPreservesRelations) {
  ConstraintGraph G = make();
  G.addEQ(G.form("i", 0), G.form("n", 0)); // i == n
  G.assign("i", G.form("i", 1));
  EXPECT_EQ(G.offsetBetween("i", "n"), 1); // i == n + 1
}

TEST_P(ConstraintGraphTest, HavocForgetsOnlyOneVariable) {
  ConstraintGraph G = make();
  G.assign("x", LinearExpr(1));
  G.assign("y", LinearExpr(2));
  G.havoc("x");
  EXPECT_FALSE(G.constValue("x").has_value());
  EXPECT_EQ(G.constValue("y"), 2);
}

TEST_P(ConstraintGraphTest, HavocKeepsImpliedFacts) {
  ConstraintGraph G = make();
  G.addLE("a", "b", 0);
  G.addLE("b", "c", 0);
  G.havoc("b");
  // a <= c survives through the closure even though b is gone.
  EXPECT_TRUE(G.provesLE(G.form("a", 0), G.form("c", 0)));
}

TEST_P(ConstraintGraphTest, RemoveVarProjects) {
  ConstraintGraph G = make();
  G.addLE("a", "b", 1);
  G.addLE("b", "c", 1);
  G.removeVar("b");
  EXPECT_FALSE(G.hasVar("b"));
  EXPECT_TRUE(G.provesLE(G.form("a", 0), G.form("c", 2)));
}

TEST_P(ConstraintGraphTest, JoinKeepsCommonFacts) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(1));
  ConstraintGraph B = make();
  B.assign("x", LinearExpr(3));
  A.joinWith(B);
  EXPECT_TRUE(A.isFeasible());
  EXPECT_FALSE(A.constValue("x").has_value());
  // But the range [1..3] is retained.
  EXPECT_TRUE(A.provesLE(A.form("x", 0), LinearExpr(3)));
  EXPECT_TRUE(A.provesLE(LinearExpr(1), A.form("x", 0)));
}

TEST_P(ConstraintGraphTest, JoinWithInfeasibleIsIdentity) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(1));
  ConstraintGraph Bot = make();
  Bot.addUpperBound("q", 0);
  Bot.addLowerBound("q", 1);
  A.joinWith(Bot);
  EXPECT_EQ(A.constValue("x"), 1);

  ConstraintGraph Bot2 = make();
  Bot2.addUpperBound("q", 0);
  Bot2.addLowerBound("q", 1);
  ConstraintGraph B = make();
  B.assign("y", LinearExpr(2));
  Bot2.joinWith(B);
  EXPECT_EQ(Bot2.constValue("y"), 2);
}

TEST_P(ConstraintGraphTest, JoinUnionOfVariableSets) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(1));
  ConstraintGraph B = make();
  B.assign("y", LinearExpr(2));
  A.joinWith(B);
  // x constrained only on one side -> unconstrained after join.
  EXPECT_FALSE(A.constValue("x").has_value());
  EXPECT_FALSE(A.constValue("y").has_value());
}

TEST_P(ConstraintGraphTest, MeetConjoins) {
  ConstraintGraph A = make();
  A.addUpperBound("x", 5);
  ConstraintGraph B = make();
  B.addLowerBound("x", 5);
  A.meetWith(B);
  EXPECT_EQ(A.constValue("x"), 5);
}

TEST_P(ConstraintGraphTest, MeetCanBecomeInfeasible) {
  ConstraintGraph A = make();
  A.addUpperBound("x", 1);
  ConstraintGraph B = make();
  B.addLowerBound("x", 2);
  A.meetWith(B);
  EXPECT_FALSE(A.isFeasible());
}

TEST_P(ConstraintGraphTest, WideningDropsUnstableBounds) {
  ConstraintGraph Old = make();
  Old.assign("i", LinearExpr(1)); // i == 1
  ConstraintGraph New = make();
  New.assign("i", LinearExpr(2)); // i == 2
  New.addLowerBound("i", 1);      // also knows i >= 1
  Old.widenWith(New);
  // Upper bound unstable -> dropped; lower bound stable -> kept.
  EXPECT_FALSE(Old.constValue("i").has_value());
  EXPECT_TRUE(Old.provesLE(LinearExpr(1), Old.form("i", 0)));
  EXPECT_FALSE(Old.provesLE(Old.form("i", 0), LinearExpr(1000000)));
}

TEST_P(ConstraintGraphTest, WideningReachesFixpoint) {
  // Simulating i = 1; while ... i = i + 1: widening must converge.
  ConstraintGraph State = make();
  State.assign("i", LinearExpr(1));
  for (int Iter = 0; Iter < 3; ++Iter) {
    ConstraintGraph Next = State;
    Next.assign("i", Next.form("i", 1));
    ConstraintGraph Widened = State;
    Widened.widenWith(Next);
    if (Widened.equals(State))
      break;
    State = Widened;
    EXPECT_LT(Iter, 2) << "widening failed to converge";
  }
  EXPECT_TRUE(State.provesLE(LinearExpr(1), State.form("i", 0)));
}

TEST_P(ConstraintGraphTest, ImpliesIsReflexiveAndOrdered) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(5));
  ConstraintGraph B = make();
  B.addUpperBound("x", 10);
  EXPECT_TRUE(A.implies(A));
  EXPECT_TRUE(A.implies(B));
  EXPECT_FALSE(B.implies(A));
}

TEST_P(ConstraintGraphTest, EquivalentFormsFindsAliases) {
  ConstraintGraph G = make();
  G.addEQ(G.form("ub", 0), G.form("i", -1)); // ub == i - 1
  G.addEQ(G.form("i", 0), LinearExpr(3));
  FormList Forms =
      G.equivalentForms(G.form("ub", 0));
  // Expect ub, i-1, and the constant 2.
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), G.form("ub", 0)),
            Forms.end());
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), G.form("i", -1)),
            Forms.end());
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), LinearExpr(2)),
            Forms.end());
}

TEST_P(ConstraintGraphTest, RenameVars) {
  ConstraintGraph G = make();
  G.assign("x", LinearExpr(4));
  G.renameVars({{"x", "z"}});
  EXPECT_FALSE(G.hasVar("x"));
  EXPECT_EQ(G.constValue("z"), 4);
}

TEST_P(ConstraintGraphTest, SwapRename) {
  ConstraintGraph G = make();
  G.assign("a", LinearExpr(1));
  G.assign("b", LinearExpr(2));
  G.renameVars({{"a", "b"}, {"b", "a"}});
  EXPECT_EQ(G.constValue("a"), 2);
  EXPECT_EQ(G.constValue("b"), 1);
}

TEST_P(ConstraintGraphTest, StrMentionsConstraints) {
  ConstraintGraph G = make();
  G.addUpperBound("x", 3);
  std::string S = G.str();
  EXPECT_NE(S.find("x"), std::string::npos);
}

TEST_P(ConstraintGraphTest, StatsCountClosures) {
  StatsRegistry Local;
  ConstraintGraph G(GetParam(), &Local);
  G.addLE("a", "b", 0);
  G.isFeasible(); // Triggers one closure (incremental: single edge).
  G.addLE("b", "c", 0);
  G.addLE("c", "a", 0);
  G.isFeasible();
  EXPECT_GT(Local.counter("cg.closure.incr.calls") +
                Local.counter("cg.closure.full.calls"),
            0);
}

TEST_P(ConstraintGraphTest, LoopCounterScenarioFromFigure5) {
  // Models the exchange-with-root loop head state: i is the loop counter,
  // the released receiver block is [1 .. i-1] after the increment.
  ConstraintGraph G = make();
  G.assign("i", LinearExpr(1));
  G.addLowerBound("np", 2);
  // First iteration body: released block is [i .. i] == [1 .. 1].
  G.assign("lo", G.form("i", 0));
  G.assign("hi", G.form("i", 0));
  G.assign("i", G.form("i", 1));
  // Now lo == i-1 and hi == i-1 must be provable.
  EXPECT_TRUE(G.provesEQ(G.form("lo", 0), G.form("i", -1)));
  EXPECT_TRUE(G.provesEQ(G.form("hi", 0), G.form("i", -1)));
}

INSTANTIATE_TEST_SUITE_P(Backends, ConstraintGraphTest,
                         ::testing::Values(DbmBackend::Dense,
                                           DbmBackend::MapBased),
                         [](const ::testing::TestParamInfo<DbmBackend> &I) {
                           return I.param == DbmBackend::Dense ? "Dense"
                                                               : "MapBased";
                         });

} // namespace
