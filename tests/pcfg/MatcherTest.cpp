//===- tests/pcfg/MatcherTest.cpp - Send/receive matcher unit tests ------------===//

#include "pcfg/Matcher.h"

#include "lang/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

class MatcherTest : public ::testing::Test {
protected:
  void SetUp() override {
    Cg.addLowerBound("np", 4);
    Opts = AnalysisOptions::simpleSymbolic();
  }

  const Expr *parseExpr(const std::string &Text) {
    ParseResult R = parseProgram("zz = " + Text + ";");
    EXPECT_TRUE(R.succeeded()) << Text;
    Programs.push_back(std::move(R.Prog));
    return cast<AssignStmt>(Programs.back().body()[0])->value();
  }

  CommDesc idShift(std::int64_t Offset, ProcRange Range) {
    CommDesc D;
    D.Range = std::move(Range);
    D.Partner.TheKind = PartnerExpr::Kind::IdPlusC;
    D.Partner.Offset = Offset;
    D.Tag = LinearExpr(0);
    return D;
  }

  CommDesc uniform(LinearExpr Value, ProcRange Range) {
    CommDesc D;
    D.Range = std::move(Range);
    D.Partner.TheKind = PartnerExpr::Kind::Uniform;
    D.Partner.Value = std::move(Value);
    D.Tag = LinearExpr(0);
    return D;
  }

  std::vector<Program> Programs;
  ConstraintGraph Cg;
  FactEnv Facts;
  HsmMatchMemo Memo;
  AnalysisOptions Opts;
  bool TagConflict = false;
};

TEST_F(MatcherTest, ShiftPairFullMatch) {
  // Senders [0..np-2] -> id+1; receivers [1..np-1] <- id-1.
  CommDesc Send = idShift(1, ProcRange(LinearExpr(0), Cg.form("np", -2)));
  CommDesc Recv = idShift(-1, ProcRange(LinearExpr(1), Cg.form("np", -1)));
  auto M = tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->SenderFull);
  EXPECT_TRUE(M->ReceiverFull);
}

TEST_F(MatcherTest, ShiftPairWrongOffsetsNoMatch) {
  CommDesc Send = idShift(1, ProcRange(LinearExpr(0), Cg.form("np", -2)));
  CommDesc Recv = idShift(-2, ProcRange(LinearExpr(2), Cg.form("np", -1)));
  EXPECT_FALSE(tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict));
}

TEST_F(MatcherTest, ShiftPairPartialReceivers) {
  // Senders [0..0] -> id+1; receivers [1..np-1] <- id-1: only receiver 1
  // can match; the rest stays blocked.
  CommDesc Send = idShift(1, ProcRange(LinearExpr(0), LinearExpr(0)));
  CommDesc Recv = idShift(-1, ProcRange(LinearExpr(1), Cg.form("np", -1)));
  auto M = tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->SenderFull);
  EXPECT_FALSE(M->ReceiverFull);
  ASSERT_TRUE(M->ReceiverRest.After.has_value());
  EXPECT_EQ(M->ReceiverRest.After->lb().primary(), LinearExpr(2));
  EXPECT_FALSE(M->ReceiverRest.Before.has_value());
}

TEST_F(MatcherTest, UniformDestPinsSingleSender) {
  // Workers [1..np-1] all send to 0; root receives from i == 2.
  Cg.assign("p0.i", LinearExpr(2));
  CommDesc Send =
      uniform(LinearExpr(0), ProcRange(LinearExpr(1), Cg.form("np", -1)));
  CommDesc Recv = uniform(Cg.form("p0.i", 0),
                          ProcRange(LinearExpr(0), LinearExpr(0)));
  // Receiver side: the root's claimed source is i; the matched sender is
  // {i}, split out of the worker set.
  auto M = tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict);
  ASSERT_TRUE(M.has_value());
  EXPECT_FALSE(M->SenderFull);
  EXPECT_TRUE(M->ReceiverFull);
  EXPECT_TRUE(M->SProcs.provablySingleton(Cg));
  ASSERT_TRUE(M->SenderRest.Before.has_value()); // [1..i-1]
  ASSERT_TRUE(M->SenderRest.After.has_value());  // [i+1..np-1]
}

TEST_F(MatcherTest, UniformDestWrongClaimedSourceNoMatch) {
  Cg.assign("p0.i", LinearExpr(2));
  // Sender is {3}, but receiver claims its source is i == 2.
  CommDesc Send =
      uniform(LinearExpr(0), ProcRange(LinearExpr(3), LinearExpr(3)));
  CommDesc Recv = uniform(Cg.form("p0.i", 0),
                          ProcRange(LinearExpr(0), LinearExpr(0)));
  EXPECT_FALSE(tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict));
}

TEST_F(MatcherTest, TagMismatchIsFlagged) {
  CommDesc Send = idShift(1, ProcRange(LinearExpr(0), LinearExpr(0)));
  Send.Tag = LinearExpr(1);
  CommDesc Recv = idShift(-1, ProcRange(LinearExpr(1), LinearExpr(1)));
  Recv.Tag = LinearExpr(2);
  EXPECT_FALSE(tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict));
  EXPECT_TRUE(TagConflict);
}

TEST_F(MatcherTest, UnknownTagNoMatchNoConflict) {
  CommDesc Send = idShift(1, ProcRange(LinearExpr(0), LinearExpr(0)));
  Send.Tag = std::nullopt;
  CommDesc Recv = idShift(-1, ProcRange(LinearExpr(1), LinearExpr(1)));
  EXPECT_FALSE(tryMatch(Opts, Send, Recv, Cg, Facts, Memo, TagConflict));
  EXPECT_FALSE(TagConflict);
}

TEST_F(MatcherTest, HsmStrategyMatchesTranspose) {
  AnalysisOptions HsmOpts = AnalysisOptions::cartesian();
  Facts.addRewrite("np", Poly::var("nrows").times(Poly::var("nrows")));
  const Expr *E = parseExpr("(id % nrows) * nrows + id / nrows");
  CommDesc Send;
  Send.Range = ProcRange::all(*Cg.symbolsPtr());
  Send.PartnerAst = E;
  Send.PartnerGlobalsOnly = true;
  Send.Tag = LinearExpr(0);
  CommDesc Recv = Send;
  auto M = tryMatch(HsmOpts, Send, Recv, Cg, Facts, Memo, TagConflict);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->SenderFull);
  EXPECT_TRUE(M->ReceiverFull);
}

TEST_F(MatcherTest, HsmStrategyRequiresGlobalsOnly) {
  AnalysisOptions HsmOpts = AnalysisOptions::cartesian();
  const Expr *E = parseExpr("(id % nrows) * nrows + id / nrows");
  CommDesc Send;
  Send.Range = ProcRange::all(*Cg.symbolsPtr());
  Send.PartnerAst = E;
  Send.PartnerGlobalsOnly = false; // e.g. nrows were assigned somewhere.
  Send.Tag = LinearExpr(0);
  CommDesc Recv = Send;
  EXPECT_FALSE(tryMatch(HsmOpts, Send, Recv, Cg, Facts, Memo, TagConflict));
}

TEST_F(MatcherTest, BoundToGlobalPolyPrefersGlobals) {
  Cg.assign("p0.lo$", Cg.form("np", -1));
  SymBound B(Cg.form("p0.lo$", 0));
  auto P = boundToGlobalPoly(B, Cg);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, Poly::var("np").minus(Poly(1)));
}

TEST_F(MatcherTest, BoundToGlobalPolyFailsOnUnresolvedLocal) {
  SymBound B(Cg.form("p0.mystery", 0));
  EXPECT_FALSE(boundToGlobalPoly(B, Cg).has_value());
}

} // namespace
