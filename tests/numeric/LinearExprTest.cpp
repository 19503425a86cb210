//===- tests/numeric/LinearExprTest.cpp - var+c recognizer tests --------------===//

#include "numeric/LinearExpr.h"

#include "lang/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

class LinearExprTest : public ::testing::Test {
protected:
  const Expr *parseExpr(const std::string &Text) {
    ParseResult R = parseProgram("x = " + Text + ";");
    EXPECT_TRUE(R.succeeded()) << Text;
    Programs.push_back(std::move(R.Prog));
    return cast<AssignStmt>(Programs.back().body()[0])->value();
  }

  std::optional<LinearExpr> fromText(const std::string &Text) {
    return LinearExpr::fromExpr(parseExpr(Text), Syms);
  }

  /// The form `Name + C` over this test's table.
  LinearExpr form(const std::string &Name, std::int64_t C) {
    return LinearExpr(Syms.intern(Name), C);
  }

  std::string varName(const LinearExpr &L) { return Syms.name(L.var()); }

  std::vector<Program> Programs;
  SymbolTable Syms;
};

TEST_F(LinearExprTest, RecognizesConstant) {
  auto L = fromText("7");
  ASSERT_TRUE(L.has_value());
  EXPECT_TRUE(L->isConstant());
  EXPECT_EQ(L->constant(), 7);
}

TEST_F(LinearExprTest, FoldsConstantArithmetic) {
  auto L = fromText("2 * 3 + 4");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->constant(), 10);
}

TEST_F(LinearExprTest, RecognizesVar) {
  auto L = fromText("id");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(varName(*L), "id");
  EXPECT_EQ(L->constant(), 0);
}

TEST_F(LinearExprTest, RecognizesVarPlusConst) {
  auto L = fromText("id + 1");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(varName(*L), "id");
  EXPECT_EQ(L->constant(), 1);
}

TEST_F(LinearExprTest, RecognizesConstPlusVar) {
  auto L = fromText("3 + i");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(varName(*L), "i");
  EXPECT_EQ(L->constant(), 3);
}

TEST_F(LinearExprTest, RecognizesVarMinusConst) {
  auto L = fromText("id - 1");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(varName(*L), "id");
  EXPECT_EQ(L->constant(), -1);
}

TEST_F(LinearExprTest, FoldsNestedConstantsAroundVar) {
  auto L = fromText("(np - 1) + 0");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(varName(*L), "np");
  EXPECT_EQ(L->constant(), -1);
}

TEST_F(LinearExprTest, RejectsVarPlusVar) {
  EXPECT_FALSE(fromText("id + i").has_value());
}

TEST_F(LinearExprTest, RejectsMultiplication) {
  EXPECT_FALSE(fromText("2 * id").has_value());
}

TEST_F(LinearExprTest, RejectsDivMod) {
  EXPECT_FALSE(fromText("id / 2").has_value());
  EXPECT_FALSE(fromText("id % 2").has_value());
}

TEST_F(LinearExprTest, RejectsConstMinusVar) {
  EXPECT_FALSE(fromText("5 - id").has_value());
}

TEST_F(LinearExprTest, NegativeConstant) {
  auto L = fromText("-4");
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->constant(), -4);
}

TEST_F(LinearExprTest, PlusAndOrdering) {
  LinearExpr A = form("i", 1);
  EXPECT_EQ(A.plus(2), form("i", 3));
  FormOrder Less{Syms};
  EXPECT_TRUE(Less(LinearExpr(3), form("a", 0)));
  EXPECT_TRUE(Less(form("a", 0), form("a", 1)));
}

TEST_F(LinearExprTest, OrderIsNameOrderNotIdOrder) {
  // "z" is interned before "a", so its id is smaller; the order still
  // follows the names.
  LinearExpr Z = form("z", 0);
  LinearExpr A = form("a", 5);
  ASSERT_LT(Z.var(), A.var());
  FormOrder Less{Syms};
  EXPECT_TRUE(Less(A, Z));
  EXPECT_FALSE(Less(Z, A));
  EXPECT_TRUE(Less(LinearExpr(100), A));
}

TEST_F(LinearExprTest, StrFormat) {
  EXPECT_EQ(form("i", 0).str(Syms), "i");
  EXPECT_EQ(form("i", 2).str(Syms), "i+2");
  EXPECT_EQ(form("i", -2).str(Syms), "i-2");
  EXPECT_EQ(LinearExpr(5).str(Syms), "5");
}

TEST_F(LinearExprTest, GlobalFormsAreConstantsAndBareNames) {
  EXPECT_TRUE(LinearExpr(5).isGlobal(Syms));
  EXPECT_TRUE(form("np", -1).isGlobal(Syms));
  EXPECT_FALSE(form("p0.i", 0).isGlobal(Syms));
}

} // namespace
