//===- tests/procset/ProcSetTest.cpp - Symbolic range tests -------------------===//

#include "procset/ProcSet.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

/// A bound holding \p Forms, added one by one.
SymBound boundOf(std::initializer_list<LinearExpr> Forms,
                 const SymbolTable &Syms) {
  SymBound B(*Forms.begin());
  for (const LinearExpr &F : Forms)
    B.addForm(F, Syms);
  return B;
}

class ProcSetTest : public ::testing::Test {
protected:
  ConstraintGraph G;

  SymbolTable &Syms() { return *G.symbolsPtr(); }

  /// A graph over G's table, so forms of both compare by id.
  ConstraintGraph sibling() {
    return ConstraintGraph(DbmBackend::Dense, &StatsRegistry::global(),
                           G.symbolsPtr());
  }

  void SetUp() override {
    // A typical analysis context: 2 <= np, i == 2.
    G.addLowerBound("np", 2);
    G.assign("i", LinearExpr(2));
  }
};

TEST_F(ProcSetTest, AllRangeIsNonEmpty) {
  EXPECT_TRUE(ProcRange::all(Syms()).provablyNonEmpty(G));
  EXPECT_FALSE(ProcRange::all(Syms()).provablyEmpty(G));
}

TEST_F(ProcSetTest, SingletonIsSingleton) {
  ProcRange R = ProcRange::singleton(LinearExpr(0));
  EXPECT_TRUE(R.provablySingleton(G));
  EXPECT_TRUE(R.provablyNonEmpty(G));
}

TEST_F(ProcSetTest, EmptyWhenUbBelowLb) {
  ProcRange R(LinearExpr(3), LinearExpr(2));
  EXPECT_TRUE(R.provablyEmpty(G));
  EXPECT_FALSE(R.provablyNonEmpty(G));
}

TEST_F(ProcSetTest, SymbolicEmptinessNeedsFacts) {
  // [np .. np-1] is provably empty for any np.
  ProcRange R(G.form("np", 0), G.form("np", -1));
  EXPECT_TRUE(R.provablyEmpty(G));
}

TEST_F(ProcSetTest, UnknownRelationIsNeither) {
  // [a .. b] with nothing known: neither empty nor non-empty provable.
  ProcRange R(G.form("a", 0), G.form("b", 0));
  EXPECT_FALSE(R.provablyEmpty(G));
  EXPECT_FALSE(R.provablyNonEmpty(G));
}

TEST_F(ProcSetTest, AdjacencyThroughConstraintGraph) {
  // [1 .. i-1] and [i .. i] are adjacent because i's value is irrelevant.
  ProcRange A(LinearExpr(1), G.form("i", -1));
  ProcRange B = ProcRange::singleton(G.form("i", 0));
  EXPECT_TRUE(provablyAdjacent(A, B, G));
  EXPECT_FALSE(provablyAdjacent(B, A, G));
}

TEST_F(ProcSetTest, AdjacencyViaConstValue) {
  // i == 2, so [1 .. 1] and [i .. np-1] are adjacent.
  ProcRange A(LinearExpr(1), LinearExpr(1));
  ProcRange B(G.form("i", 0), G.form("np", -1));
  EXPECT_TRUE(provablyAdjacent(A, B, G));
}

TEST_F(ProcSetTest, MergeAdjacent) {
  ProcRange A(LinearExpr(1), G.form("i", -1));
  ProcRange B(G.form("i", 0), G.form("np", -1));
  auto M = tryMerge(A, B, G);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->lb().primary(), LinearExpr(1));
  EXPECT_EQ(M->ub().primary(), G.form("np", -1));
}

TEST_F(ProcSetTest, MergeContained) {
  ProcRange A(LinearExpr(0), G.form("np", -1));
  ProcRange B(LinearExpr(1), LinearExpr(1));
  auto M = tryMerge(A, B, G);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(provablyEqual(*M, A, G));
}

TEST_F(ProcSetTest, MergeFailsForGap) {
  ProcRange A(LinearExpr(0), LinearExpr(0));
  ProcRange B(LinearExpr(5), LinearExpr(9));
  EXPECT_FALSE(tryMerge(A, B, G).has_value());
}

TEST_F(ProcSetTest, ContainsAndDisjoint) {
  ProcRange All = ProcRange::all(Syms());
  ProcRange One = ProcRange::singleton(LinearExpr(0));
  ProcRange Rest(LinearExpr(1), G.form("np", -1));
  EXPECT_TRUE(provablyContains(All, One, G));
  EXPECT_TRUE(provablyContains(All, Rest, G));
  EXPECT_FALSE(provablyContains(One, All, G));
  EXPECT_TRUE(provablyDisjoint(One, Rest, G));
  EXPECT_FALSE(provablyDisjoint(All, Rest, G));
}

TEST_F(ProcSetTest, DifferenceSplitsAtFront) {
  // [1..np-1] minus [1..1]: before empty, after [2..np-1]. Needs np >= 3
  // to prove the remainder non-empty; np >= 2 only proves containment, so
  // strengthen.
  G.addLowerBound("np", 3);
  ProcRange R(LinearExpr(1), G.form("np", -1));
  ProcRange M(LinearExpr(1), LinearExpr(1));
  auto D = tryDifference(R, M, G);
  ASSERT_TRUE(D.has_value());
  EXPECT_FALSE(D->Before.has_value());
  ASSERT_TRUE(D->After.has_value());
  EXPECT_EQ(D->After->lb().primary(), LinearExpr(2));
  EXPECT_EQ(D->After->ub().primary(), G.form("np", -1));
}

TEST_F(ProcSetTest, DifferenceKeepsPossiblyEmptyLeftovers) {
  // [0..np-1] minus [i..i] with i == 2 and np >= 2: the 'after' part
  // [3..np-1] is neither provably empty nor provably non-empty. Such
  // leftovers are kept as possibly-empty sets; their emptiness may be
  // discovered later (the paper deletes sets when they are *discovered*
  // to be empty).
  G.addLowerBound("np", 3); // Needed for provable containment of [i..i].
  ProcRange R = ProcRange::all(Syms());
  ProcRange M = ProcRange::singleton(G.form("i", 0));
  auto D = tryDifference(R, M, G);
  ASSERT_TRUE(D.has_value());
  ASSERT_TRUE(D->Before.has_value());
  ASSERT_TRUE(D->After.has_value());
  EXPECT_FALSE(D->After->provablyEmpty(G));
  EXPECT_FALSE(D->After->provablyNonEmpty(G));
}

TEST_F(ProcSetTest, DifferenceMiddleWithEnoughFacts) {
  G.addLE("i", "np", -2); // i <= np - 2: after part non-empty... needs i+1 <= np-1.
  ProcRange R = ProcRange::all(Syms());
  ProcRange M = ProcRange::singleton(G.form("i", 0));
  auto D = tryDifference(R, M, G);
  ASSERT_TRUE(D.has_value());
  ASSERT_TRUE(D->Before.has_value());
  ASSERT_TRUE(D->After.has_value());
  EXPECT_EQ(D->Before->ub().primary(), G.form("i", -1));
  EXPECT_EQ(D->After->lb().primary(), G.form("i", 1));
}

TEST_F(ProcSetTest, DifferenceNotContainedFails) {
  ProcRange R(LinearExpr(1), LinearExpr(3));
  ProcRange M(LinearExpr(2), LinearExpr(9));
  EXPECT_FALSE(tryDifference(R, M, G).has_value());
}

TEST_F(ProcSetTest, IntersectComparableBounds) {
  ProcRange A(LinearExpr(0), G.form("np", -1));
  ProcRange B(LinearExpr(1), G.form("np", 5));
  auto I = tryIntersect(A, B, G);
  ASSERT_TRUE(I.has_value());
  EXPECT_EQ(I->lb().primary(), LinearExpr(1));
  EXPECT_EQ(I->ub().primary(), G.form("np", -1));
}

TEST_F(ProcSetTest, IntersectIncomparableFails) {
  ProcRange A(G.form("a", 0), LinearExpr(10));
  ProcRange B(G.form("b", 0), LinearExpr(10));
  EXPECT_FALSE(tryIntersect(A, B, G).has_value());
}

TEST_F(ProcSetTest, ShiftedRange) {
  ProcRange R(LinearExpr(1), G.form("np", -1));
  ProcRange S = R.shifted(-1);
  EXPECT_EQ(S.lb().primary(), LinearExpr(0));
  EXPECT_EQ(S.ub().primary(), G.form("np", -2));
}

TEST_F(ProcSetTest, EnrichAddsAliases) {
  SymBound B(G.form("i", 0));
  B.enrich(G); // i == 2 is known.
  EXPECT_NE(std::find(B.forms().begin(), B.forms().end(), LinearExpr(2)),
            B.forms().end());
}

TEST_F(ProcSetTest, WideningKeepsCommonForms) {
  // Figure 5's loop invariant: first pass ub is {1, i} (i == 1 then), the
  // second pass ub is {2, i} (i == 2 now); the common form `i` survives.
  ConstraintGraph G1 = sibling();
  G1.assign("i", LinearExpr(1));
  ConstraintGraph G2 = sibling();
  G2.assign("i", LinearExpr(2));
  ProcRange Old(LinearExpr(1), LinearExpr(1));
  ProcRange New(LinearExpr(1), LinearExpr(2));
  // Enriching Old under G1 adds ub form i; New under G2 adds ub form i.
  auto W = widenRange(Old, G1, New, G2);
  ASSERT_TRUE(W.has_value());
  const auto &Forms = W->ub().forms();
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), G.form("i", 0)),
            Forms.end());
}

TEST_F(ProcSetTest, WideningFailsWithoutCommonForm) {
  ConstraintGraph G1 = sibling();
  G1.assign("i", LinearExpr(1));
  ConstraintGraph G2 = sibling();
  G2.assign("j", LinearExpr(2));
  ProcRange Old(LinearExpr(1), LinearExpr(1));
  ProcRange New(LinearExpr(1), LinearExpr(2));
  EXPECT_FALSE(widenRange(Old, G1, New, G2).has_value());
}

TEST_F(ProcSetTest, BoundStrFormats) {
  SymBound B(G.form("i", 0));
  B.addForm(LinearExpr(2), G.symbols());
  EXPECT_EQ(B.str(G.symbols()), "{2,i}");
  EXPECT_EQ(ProcRange::all(Syms()).str(G.symbols()), "[0..np-1]");
}

TEST_F(ProcSetTest, RenameVars) {
  ProcRange R(G.form("i", 0), G.form("np", -1));
  ProcRange S = R.withRenamedVars(
      [&](VarId V) { return Syms().intern("ps0::" + Syms().name(V)); },
      G.symbols());
  EXPECT_EQ(S.lb().primary(), G.form("ps0::i", 0));
  EXPECT_EQ(S.ub().primary(), G.form("ps0::np", -1));
}

TEST_F(ProcSetTest, RenameRestoresNameOrder) {
  // {a, m}: renaming a to z must move it behind m.
  SymBound B(G.form("a", 0));
  B.addForm(G.form("m", 0), G.symbols());
  SymBound R = B.withRenamedVars(
      [&](VarId V) { return V == G.form("a").var() ? Syms().intern("z") : V; },
      G.symbols());
  EXPECT_EQ(R.str(G.symbols()), "{m,z}");
}

TEST_F(ProcSetTest, PlusKeepsFormOrder) {
  SymBound B(G.form("b", 0));
  B.addForm(G.form("a", 3), G.symbols());
  B.addForm(LinearExpr(7), G.symbols());
  SymBound Shifted = B.plus(-5);
  EXPECT_EQ(Shifted.str(G.symbols()), "{2,a-2,b-5}");
  SymBound Added(LinearExpr(2));
  Added.addForm(G.form("b", -5), G.symbols());
  Added.addForm(G.form("a", -2), G.symbols());
  EXPECT_EQ(Shifted, Added);
}

TEST_F(ProcSetTest, IntersectFormsKeepsCommonFormsInOrder) {
  SymBound A = boundOf({G.form("c"), LinearExpr(1), G.form("a")},
                       G.symbols());
  SymBound B = boundOf({G.form("a"), G.form("c"), G.form("b")},
                       G.symbols());
  auto Common = A.intersectForms(B);
  ASSERT_TRUE(Common.has_value());
  EXPECT_EQ(Common->str(G.symbols()), "{a,c}");
  EXPECT_FALSE(A.intersectForms(SymBound(LinearExpr(2))).has_value());
}

TEST_F(ProcSetTest, BoundsPastInlineCapacitySpill) {
  SymBound B(LinearExpr(0));
  for (int I = 1; I < 20; ++I)
    B.addForm(G.form("v" + std::to_string(100 - I)), G.symbols());
  ASSERT_EQ(B.forms().size(), 20u);
  EXPECT_FALSE(B.forms().isInline());
  EXPECT_EQ(B.primary(), LinearExpr(0));
  EXPECT_EQ(B.forms()[1], G.form("v81"));
  SymBound Copy = B;
  EXPECT_EQ(Copy, B);
  EXPECT_EQ(B.plus(1).forms()[19], G.form("v99", 1));
}

/// Builds the same bounds over a table that already interned \p Order, so
/// the bounds' variables get ids in that order.
std::vector<std::string> boundsOver(const std::vector<std::string> &Order) {
  ConstraintGraph G;
  SymbolTable &Syms = *G.symbolsPtr();
  for (const std::string &Name : Order)
    Syms.intern(Name);
  G.addEQ(G.form("p1.lo$"), G.form("q0.lo", 1));
  G.addEQ(G.form("p1.lo$"), G.form("np", -3));
  G.addEQ(G.form("p0.i"), LinearExpr(4));
  std::vector<std::string> Out;
  for (const char *Var : {"p1.lo$", "q0.lo", "np", "p0.i"}) {
    SymBound B(G.form(Var));
    B.enrich(G);
    Out.push_back(B.str(Syms));
    Out.push_back(B.primary().str(Syms));
    for (const LinearExpr &F : B.forms())
      Out.push_back(F.str(Syms));
  }
  SymBound Built = boundOf(
      {G.form("q0.lo"), G.form("np"), LinearExpr(2), G.form("p1.lo$")},
      Syms);
  Out.push_back(Built.str(Syms));
  ProcRange R(G.form("p0.i"), G.form("np", -1));
  R.enrich(G);
  Out.push_back(R.str(Syms));
  return Out;
}

TEST(ProcSetOrderTest, FormOrderDoesNotDependOnInterningOrder) {
  std::vector<std::string> Names = {"np", "p0.i", "p1.lo$", "q0.lo"};
  std::vector<std::string> Reversed(Names.rbegin(), Names.rend());
  std::vector<std::string> Forward = boundsOver(Names);
  EXPECT_EQ(Forward, boundsOver(Reversed));
  // Spot-check the order itself: constants, then names.
  EXPECT_EQ(Forward.front(), "{np-3,p1.lo$,q0.lo+1}");
}

} // namespace
