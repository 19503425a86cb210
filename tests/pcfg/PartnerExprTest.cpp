//===- tests/pcfg/PartnerExprTest.cpp - Expression classification tests --------===//

#include "pcfg/PartnerExpr.h"

#include "lang/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

class PartnerExprTest : public ::testing::Test {
protected:
  const Expr *parseExpr(const std::string &Text) {
    ParseResult R = parseProgram("zz = " + Text + ";");
    EXPECT_TRUE(R.succeeded()) << Text;
    Programs.push_back(std::move(R.Prog));
    return cast<AssignStmt>(Programs.back().body()[0])->value();
  }

  PartnerExpr classify(const std::string &Text) {
    return classifyPartnerExpr(parseExpr(Text), Set, Assigned, Cg);
  }

  std::vector<Program> Programs;
  ConstraintGraph Cg;
  ProcSetEntry Set = [this] {
    ProcSetEntry E;
    E.Name = "p0";
    E.Range = ProcRange::all(*Cg.symbolsPtr());
    return E;
  }();
  std::set<std::string> Assigned = {"i", "x", "w"};
};

TEST_F(PartnerExprTest, MatchIdPlusCForms) {
  EXPECT_EQ(matchIdPlusC(parseExpr("id")), 0);
  EXPECT_EQ(matchIdPlusC(parseExpr("id + 3")), 3);
  EXPECT_EQ(matchIdPlusC(parseExpr("3 + id")), 3);
  EXPECT_EQ(matchIdPlusC(parseExpr("id - 2")), -2);
  EXPECT_EQ(matchIdPlusC(parseExpr("id + 2 * 3")), 6);
  EXPECT_FALSE(matchIdPlusC(parseExpr("id * 2")).has_value());
  EXPECT_FALSE(matchIdPlusC(parseExpr("2 - id")).has_value());
  EXPECT_FALSE(matchIdPlusC(parseExpr("id + i")).has_value());
}

TEST_F(PartnerExprTest, ClassifiesIdShift) {
  PartnerExpr P = classify("id + 1");
  EXPECT_TRUE(P.isIdPlusC());
  EXPECT_EQ(P.Offset, 1);
}

TEST_F(PartnerExprTest, ClassifiesConstant) {
  PartnerExpr P = classify("0");
  ASSERT_TRUE(P.isUniform());
  EXPECT_EQ(P.Value, LinearExpr(0));
}

TEST_F(PartnerExprTest, ScopesAssignedVariables) {
  PartnerExpr P = classify("i + 1");
  ASSERT_TRUE(P.isUniform());
  EXPECT_EQ(P.Value, Cg.form("p0.i", 1));
}

TEST_F(PartnerExprTest, GlobalsStayUnscoped) {
  PartnerExpr P = classify("np - 1");
  ASSERT_TRUE(P.isUniform());
  EXPECT_EQ(P.Value, Cg.form("np", -1));
}

TEST_F(PartnerExprTest, NonUniformVarOnMultiSetIsComplex) {
  Set.NonUniform.insert("x");
  EXPECT_TRUE(classify("x + 1").isComplex());
}

TEST_F(PartnerExprTest, NonUniformVarOnSingletonIsUniform) {
  Set.NonUniform.insert("x");
  Set.Range = ProcRange::singleton(LinearExpr(3));
  PartnerExpr P = classify("x + 1");
  ASSERT_TRUE(P.isUniform());
  EXPECT_EQ(P.Value, Cg.form("p0.x", 1));
}

TEST_F(PartnerExprTest, TransposeExprIsComplex) {
  EXPECT_TRUE(classify("(id % nrows) * nrows + id / nrows").isComplex());
}

TEST_F(PartnerExprTest, SymbolicShiftResolvesWhenPinned) {
  // Without a pinned value, `id + ncols` is Complex.
  EXPECT_TRUE(classify("id + ncols").isComplex());
  // Pinning ncols turns it into a plain shift.
  Cg.addEQ(Cg.form("ncols", 0), LinearExpr(4));
  PartnerExpr P = classify("id + ncols");
  ASSERT_TRUE(P.isIdPlusC());
  EXPECT_EQ(P.Offset, 4);
  PartnerExpr M = classify("id - ncols");
  ASSERT_TRUE(M.isIdPlusC());
  EXPECT_EQ(M.Offset, -4);
}

TEST_F(PartnerExprTest, NonLinearUniformResolvesWhenPinned) {
  EXPECT_TRUE(classify("np - ncols").isComplex());
  Cg.addEQ(Cg.form("ncols", 0), LinearExpr(4));
  Cg.addEQ(Cg.form("np", 0), LinearExpr(12));
  PartnerExpr P = classify("np - ncols");
  ASSERT_TRUE(P.isUniform());
  EXPECT_EQ(P.Value, LinearExpr(8));
}

TEST_F(PartnerExprTest, InputIsComplex) {
  EXPECT_TRUE(classify("input()").isComplex());
}

} // namespace
