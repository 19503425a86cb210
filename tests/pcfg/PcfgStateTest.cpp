//===- tests/pcfg/PcfgStateTest.cpp - State bookkeeping tests ------------------===//

#include "pcfg/PcfgState.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

/// One table for every state of this file, as one analysis run shares
/// one: bound forms compare by id, so states that meet in a join or an
/// equality check must intern into the same table.
const SymbolTablePtr &sharedSymbols() {
  static const SymbolTablePtr Syms = std::make_shared<SymbolTable>();
  return Syms;
}

SymbolTable &syms() { return *sharedSymbols(); }

PcfgState newState() {
  PcfgState St;
  St.Cg = ConstraintGraph(DbmBackend::Dense, &StatsRegistry::global(),
                          sharedSymbols());
  return St;
}

/// The form `Name + C` over the shared table.
LinearExpr form(const std::string &Name, std::int64_t C) {
  return LinearExpr(syms().intern(Name), C);
}

ProcSetEntry makeSet(const std::string &Name, ProcRange Range,
                     CfgNodeId Node) {
  ProcSetEntry E;
  E.Name = Name;
  E.Range = std::move(Range);
  E.Node = Node;
  return E;
}

TEST(PcfgStateTest, ScopedVarSeparatesGlobalsFromLocals) {
  ProcSetEntry Set = makeSet("p0", ProcRange::all(syms()), 0);
  std::set<std::string> Assigned = {"x", "i"};
  EXPECT_EQ(PcfgState::scopedVar(Set, "x", Assigned), "p0.x");
  EXPECT_EQ(PcfgState::scopedVar(Set, "np", Assigned), "np");
  EXPECT_EQ(PcfgState::scopedVar(Set, "nrows", Assigned), "nrows");
}

TEST(PcfgStateTest, RenameSetMovesVariablesAndRangeReferences) {
  PcfgState St = newState();
  St.Sets.push_back(makeSet("s7", ProcRange(form("s7.lo$", 0),
                                            form("np", -1)),
                            3));
  St.Cg.assign("s7.lo$", LinearExpr(2));
  St.Cg.assign("s7.i", LinearExpr(5));
  St.renameSet(0, "p0");
  EXPECT_EQ(St.Sets[0].Name, "p0");
  EXPECT_EQ(St.Cg.constValue("p0.lo$"), 2);
  EXPECT_EQ(St.Cg.constValue("p0.i"), 5);
  EXPECT_FALSE(St.Cg.hasVar("s7.i"));
  EXPECT_EQ(St.Sets[0].Range.lb().primary(), form("p0.lo$", 0));
}

TEST(PcfgStateTest, RenameSetLeavesLookalikeNamesAlone) {
  // Renaming namespace p1 must not touch p10's variables or a bare `p1`,
  // in the graph or in any range.
  PcfgState St = newState();
  St.Sets.push_back(makeSet(
      "p1", ProcRange(form("p1.lo$", 0), form("p10.x", 0)), 0));
  St.Sets.push_back(makeSet(
      "p10", ProcRange(form("p1", 0), form("p1.x", 2)), 1));
  St.Cg.assign("p1.lo$", LinearExpr(0));
  St.Cg.assign("p10.x", LinearExpr(5));
  St.Cg.assign("p1", LinearExpr(7));
  St.Cg.assign("p1.x", LinearExpr(1));
  St.renameSet(0, "s3");
  EXPECT_EQ(St.setsStr(), "s3=[s3.lo$..p10.x]@n0 p10=[p1..s3.x+2]@n1");
  EXPECT_EQ(St.Cg.varNames(),
            (std::vector<std::string>{"s3.lo$", "p10.x", "p1", "s3.x"}));
  EXPECT_EQ(St.Cg.constValue("p10.x"), 5);
  EXPECT_EQ(St.Cg.constValue("p1"), 7);
  EXPECT_EQ(St.Cg.constValue("s3.x"), 1);
}

TEST(PcfgStateTest, CanonicalizeSortsByNodeThenBound) {
  PcfgState St = newState();
  St.Sets.push_back(makeSet("a", ProcRange(LinearExpr(5), LinearExpr(9)), 7));
  St.Sets.push_back(makeSet("b", ProcRange(LinearExpr(0), LinearExpr(4)), 3));
  St.canonicalize();
  EXPECT_EQ(St.Sets[0].Node, 3u);
  EXPECT_EQ(St.Sets[0].Name, "p0");
  EXPECT_EQ(St.Sets[1].Node, 7u);
  EXPECT_EQ(St.Sets[1].Name, "p1");
}

TEST(PcfgStateTest, CanonicalizeRenumbersPendingNamespaces) {
  PcfgState St = newState();
  St.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 1));
  PendingSend P;
  P.SendNode = 4;
  P.Seq = 9;
  P.FreezeNs = "q9";
  P.Senders = ProcRange(form("q9.lo", 0), form("q9.hi", 0));
  St.Cg.assign("q9.lo", LinearExpr(1));
  St.Cg.assign("q9.hi", LinearExpr(3));
  St.InFlight.push_back(P);
  St.canonicalize();
  EXPECT_EQ(St.InFlight[0].FreezeNs, "q0");
  EXPECT_EQ(St.InFlight[0].Seq, 0u);
  EXPECT_EQ(St.Cg.constValue("q0.lo"), 1);
  EXPECT_EQ(St.InFlight[0].Senders.lb().primary(),
            form("q0.lo", 0));
}

/// A CFG with \p N plain nodes, enough for PcfgState::str().
Cfg skipCfg(unsigned N) {
  Cfg G;
  for (unsigned I = 0; I < N; ++I)
    G.addNode(CfgNodeKind::Skip);
  return G;
}

/// A pending send whose senders [Lo..Hi] are frozen into slots of \p Ns
/// named after \p Piece, so pieces sharing a namespace keep apart.
PendingSend makePending(CfgNodeId Node, unsigned Seq, const std::string &Ns,
                        int Piece, std::int64_t Lo, std::int64_t Hi,
                        PcfgState &St) {
  std::string LoVar = Ns + ".lo" + std::to_string(Piece);
  std::string HiVar = Ns + ".hi" + std::to_string(Piece);
  PendingSend P;
  P.SendNode = Node;
  P.Seq = Seq;
  P.FreezeNs = Ns;
  P.Senders = ProcRange(form(LoVar, 0), form(HiVar, 0));
  St.Cg.assign(LoVar, LinearExpr(Lo));
  St.Cg.assign(HiVar, LinearExpr(Hi));
  return P;
}

/// Sets out of canonical order, all named `p<k>` and one of them squatting
/// on a name another must take, and freeze namespaces out of FIFO order
/// with one shared by two pieces of a partially consumed send.
PcfgState permutedState() {
  PcfgState St = newState();
  St.Sets.push_back(makeSet("p1", ProcRange(LinearExpr(0), LinearExpr(0)), 3));
  St.Sets.push_back(makeSet("p7", ProcRange(LinearExpr(0), LinearExpr(3)), 1));
  St.Sets.push_back(makeSet(
      "p0", ProcRange(form("p0.lo$", 0), form("np", -1)), 3));
  St.Cg.assign("p1.x", LinearExpr(5));
  St.Cg.assign("p7.x", LinearExpr(2));
  St.Cg.assign("p0.lo$", LinearExpr(4));
  St.Cg.addLE(form("p0.x", 0), form("np", 0));
  St.Sets[1].NonUniform.insert("y");
  St.InFlight.push_back(makePending(6, 9, "q7", 1, 1, 1, St));
  St.InFlight.push_back(makePending(5, 8, "q2", 0, 0, 0, St));
  St.InFlight.push_back(makePending(6, 5, "q7", 0, 2, 3, St));
  St.NextSeq = 10;
  return St;
}

TEST(PcfgStateTest, CanonicalizePermutedStateRenumbersEverything) {
  PcfgState St = permutedState();
  St.canonicalize();
  ASSERT_EQ(St.Sets.size(), 3u);
  EXPECT_EQ(St.setsStr(), "p0=[0..3]@n1 p1=[0..0]@n3 p2=[p2.lo$..np-1]@n3");
  const std::string Dump = St.str(skipCfg(8));
  EXPECT_EQ(Dump.substr(0, Dump.find("cg: ")),
            "p0 = [0..3] at n1:skip\n"
            "p1 = [0..0] at n3:skip\n"
            "p2 = [p2.lo$..np-1] at n3:skip\n"
            "in-flight: [q0.lo0..q0.hi0] from n6:skip\n"
            "in-flight: [q1.lo0..q1.hi0] from n5:skip\n"
            "in-flight: [q0.lo1..q0.hi1] from n6:skip\n");
  EXPECT_EQ(St.Cg.constValue("p0.x"), 2);
  EXPECT_EQ(St.Cg.constValue("p1.x"), 5);
  EXPECT_EQ(St.Cg.constValue("p2.lo$"), 4);
  EXPECT_TRUE(St.Cg.provesLE(form("p2.x", 0), form("np", 0)));
  EXPECT_EQ(St.Cg.constValue("q0.lo0"), 2);
  EXPECT_EQ(St.Cg.constValue("q0.hi1"), 1);
  EXPECT_FALSE(St.Cg.hasVar("p7.x"));
  EXPECT_FALSE(St.Cg.hasVar("q7.lo0"));
  EXPECT_EQ(St.Sets[0].NonUniform.count("y"), 1u);
  ASSERT_EQ(St.InFlight.size(), 3u);
  EXPECT_EQ(St.InFlight[0].FreezeNs, "q0");
  EXPECT_EQ(St.InFlight[1].FreezeNs, "q1");
  EXPECT_EQ(St.InFlight[2].FreezeNs, "q0");
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(St.InFlight[I].Seq, I);
  EXPECT_EQ(St.NextSeq, 5u); // Three pieces plus two distinct namespaces.
}

/// The canonical form of permutedState(), built directly so that no
/// temporary namespace was ever interned into its symbol table.
PcfgState canonicalState() {
  PcfgState St = newState();
  St.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(0), LinearExpr(3)), 1));
  St.Sets.push_back(makeSet("p1", ProcRange(LinearExpr(0), LinearExpr(0)), 3));
  St.Sets.push_back(makeSet(
      "p2", ProcRange(form("p2.lo$", 0), form("np", -1)), 3));
  St.Cg.assign("p1.x", LinearExpr(5));
  St.Cg.assign("p0.x", LinearExpr(2));
  St.Cg.assign("p2.lo$", LinearExpr(4));
  St.Cg.addLE(form("p2.x", 0), form("np", 0));
  St.Sets[0].NonUniform.insert("y");
  St.InFlight.push_back(makePending(6, 0, "q0", 0, 2, 3, St));
  St.InFlight.push_back(makePending(5, 1, "q1", 0, 0, 0, St));
  St.InFlight.push_back(makePending(6, 2, "q0", 1, 1, 1, St));
  St.NextSeq = 5;
  return St;
}

/// Canonicalizes \p St and expects nothing to change: same state, same
/// dump, same emission stamps, and no name interned.
void expectCanonicalizeIsNoOp(PcfgState &St) {
  Cfg G = skipCfg(8);
  const PcfgState Copy = St;
  const std::string Before = St.str(G);
  const size_t Interned = St.Cg.symbols().size();
  St.canonicalize();
  EXPECT_TRUE(statesEqual(St, Copy));
  EXPECT_EQ(St.str(G), Before);
  EXPECT_EQ(St.setsStr(), Copy.setsStr());
  EXPECT_EQ(St.NextSeq, Copy.NextSeq);
  ASSERT_EQ(St.InFlight.size(), Copy.InFlight.size());
  for (size_t I = 0; I < St.InFlight.size(); ++I) {
    EXPECT_EQ(St.InFlight[I].FreezeNs, Copy.InFlight[I].FreezeNs);
    EXPECT_EQ(St.InFlight[I].Seq, Copy.InFlight[I].Seq);
  }
  EXPECT_EQ(St.Cg.symbols().size(), Interned);
}

TEST(PcfgStateTest, CanonicalizingACanonicalStateIsANoOp) {
  PcfgState St = canonicalState();
  expectCanonicalizeIsNoOp(St);
  for (const char *Tmp : {"tmp$0.x", "tmp$1.x", "tmp$2.lo$", "tmpq$0.lo0",
                          "tmpq$1.hi0"})
    EXPECT_FALSE(St.Cg.symbols().lookup(Tmp).has_value()) << Tmp;

  // The same holds once a permuted state has been canonicalized.
  PcfgState Permuted = permutedState();
  Permuted.canonicalize();
  EXPECT_TRUE(statesEqual(Permuted, St));
  EXPECT_EQ(Permuted.setsStr(), St.setsStr());
  expectCanonicalizeIsNoOp(Permuted);
}

/// Sets out of canonical order whose ranges reference each other's
/// anchors, and two pending sends out of FIFO order: a plain one whose
/// tag, value and destination are frozen into its namespace, and an
/// aggregate with a frozen receiver range.
PcfgState frozenState() {
  PcfgState St = newState();
  St.Sets.push_back(makeSet(
      "s4", ProcRange(LinearExpr(1), form("s4.ub$", 0)), 2));
  St.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(0), LinearExpr(0)), 2));
  St.Sets.push_back(makeSet(
      "s9", ProcRange(form("s4.ub$", 1), form("np", -1)), 1));
  St.Cg.assign("s4.ub$", LinearExpr(3));
  St.Cg.assign("s4.i", form("np", -2));
  St.Cg.addLE(form("s9.i", 0), form("s4.i", 1));
  St.Cg.assign("p0.i", LinearExpr(0));
  PendingSend Plain = makePending(7, 6, "q6", 0, 0, 0, St);
  St.Cg.assign("q6.tag", form("s4.i", 0));
  St.Cg.assign("q6.val", LinearExpr(11));
  Plain.Tag = form("q6.tag", 0);
  Plain.Value = form("q6.val", 2);
  Plain.DestUniform = form("q6.lo0", 1);
  St.InFlight.push_back(Plain);
  PendingSend Agg = makePending(5, 2, "q2", 0, 1, 3, St);
  Agg.IsAggregate = true;
  St.Cg.assign("q2.alo", LinearExpr(4));
  St.Cg.assign("q2.ahi", form("np", -1));
  Agg.AggRange = ProcRange(form("q2.alo", 0), form("q2.ahi", 0));
  Agg.Tag = LinearExpr(3);
  St.InFlight.push_back(Agg);
  St.NextSeq = 8;
  return St;
}

TEST(PcfgStateTest, CanonicalizeRenamesEverythingInOnePass) {
  // Pins what the two-pass (temporary-namespace) renaming produced: the
  // same names, slot order and dump, renamed frozen expressions, and
  // NextSeq. The one simultaneous rename interns no temporary name.
  PcfgState St = frozenState();
  const PcfgState Before = St;
  St.canonicalize();
  EXPECT_EQ(St.str(skipCfg(8)),
            "p0 = [p2.ub$+1..np-1] at n1:skip\n"
            "p1 = [0..0] at n2:skip\n"
            "p2 = [1..p2.ub$] at n2:skip\n"
            "in-flight: [q0.lo0..q0.hi0] from n5:skip\n"
            "in-flight: [q1.lo0..q1.hi0] from n7:skip\n"
      "cg: p2.ub$ >= 3, p1.i >= 0, q1.lo0 >= 0, q1.hi0 >= 0, "
      "q1.val >= 11, q0.lo0 >= 1, q0.hi0 >= 3, q0.alo >= 4, "
      "p2.ub$ <= 3, p2.ub$ <= p1.i+3, p2.ub$ <= q1.lo0+3, "
      "p2.ub$ <= q1.hi0+3, p2.ub$ <= q1.val-8, p2.ub$ <= q0.lo0+2, "
      "p2.ub$ <= q0.hi0+0, p2.ub$ <= q0.alo-1, p2.i <= np-2, "
      "p2.i <= q1.tag+0, p2.i <= q0.ahi-1, np <= p2.i+2, "
      "np <= q1.tag+2, np <= q0.ahi+1, p0.i <= p2.i+1, p0.i <= np-1, "
      "p0.i <= q1.tag+1, p0.i <= q0.ahi+0, p1.i <= 0, p1.i <= p2.ub$-3, "
      "p1.i <= q1.lo0+0, p1.i <= q1.hi0+0, p1.i <= q1.val-11, "
      "p1.i <= q0.lo0-1, p1.i <= q0.hi0-3, p1.i <= q0.alo-4, "
      "q1.lo0 <= 0, q1.lo0 <= p2.ub$-3, q1.lo0 <= p1.i+0, "
      "q1.lo0 <= q1.hi0+0, q1.lo0 <= q1.val-11, q1.lo0 <= q0.lo0-1, "
      "q1.lo0 <= q0.hi0-3, q1.lo0 <= q0.alo-4, q1.hi0 <= 0, "
      "q1.hi0 <= p2.ub$-3, q1.hi0 <= p1.i+0, q1.hi0 <= q1.lo0+0, "
      "q1.hi0 <= q1.val-11, q1.hi0 <= q0.lo0-1, q1.hi0 <= q0.hi0-3, "
      "q1.hi0 <= q0.alo-4, q1.tag <= p2.i+0, q1.tag <= np-2, "
      "q1.tag <= q0.ahi-1, q1.val <= 11, q1.val <= p2.ub$+8, "
      "q1.val <= p1.i+11, q1.val <= q1.lo0+11, q1.val <= q1.hi0+11, "
      "q1.val <= q0.lo0+10, q1.val <= q0.hi0+8, q1.val <= q0.alo+7, "
      "q0.lo0 <= 1, q0.lo0 <= p2.ub$-2, q0.lo0 <= p1.i+1, "
      "q0.lo0 <= q1.lo0+1, q0.lo0 <= q1.hi0+1, q0.lo0 <= q1.val-10, "
      "q0.lo0 <= q0.hi0-2, q0.lo0 <= q0.alo-3, q0.hi0 <= 3, "
      "q0.hi0 <= p2.ub$+0, q0.hi0 <= p1.i+3, q0.hi0 <= q1.lo0+3, "
      "q0.hi0 <= q1.hi0+3, q0.hi0 <= q1.val-8, q0.hi0 <= q0.lo0+2, "
      "q0.hi0 <= q0.alo-1, q0.alo <= 4, q0.alo <= p2.ub$+1, "
      "q0.alo <= p1.i+4, q0.alo <= q1.lo0+4, q0.alo <= q1.hi0+4, "
      "q0.alo <= q1.val-7, q0.alo <= q0.lo0+3, q0.alo <= q0.hi0+1, "
      "q0.ahi <= p2.i+1, q0.ahi <= np-1, q0.ahi <= q1.tag+1\n");
  EXPECT_EQ(St.Cg.varNames(),
            (std::vector<std::string>{"p2.ub$", "p2.i", "np", "p0.i", "p1.i",
                                      "q1.lo0", "q1.hi0", "q1.tag", "q1.val",
                                      "q0.lo0", "q0.hi0", "q0.alo",
                                      "q0.ahi"}));
  EXPECT_EQ(St.NextSeq, 4u);
  ASSERT_EQ(St.InFlight.size(), 2u);
  const PendingSend &Agg = St.InFlight[0];
  EXPECT_EQ(Agg.FreezeNs, "q0");
  EXPECT_EQ(Agg.AggRange.str(syms()), "[q0.alo..q0.ahi]");
  EXPECT_EQ(Agg.Tag, LinearExpr(3));
  const PendingSend &Plain = St.InFlight[1];
  EXPECT_EQ(Plain.FreezeNs, "q1");
  EXPECT_EQ(Plain.Seq, 1u);
  EXPECT_EQ(Plain.Tag, form("q1.tag", 0));
  EXPECT_EQ(Plain.Value, form("q1.val", 2));
  EXPECT_EQ(Plain.DestUniform, form("q1.lo0", 1));
  EXPECT_FALSE(statesEqual(St, Before));
  PcfgState Again = frozenState();
  Again.canonicalize();
  EXPECT_TRUE(statesEqual(St, Again));
  const SymbolTable &Syms = St.Cg.symbols();
  for (VarId Id = 0; Id < Syms.size(); ++Id)
    EXPECT_NE(Syms.name(Id).rfind("tmp", 0), 0u) << Syms.name(Id);
}

TEST(PcfgStateTest, ConfigKeyCoversSetsAndPendings) {
  PcfgState St = newState();
  St.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 2));
  EXPECT_EQ(St.configKey(), "n2;|");
  PendingSend P;
  P.SendNode = 5;
  P.FreezeNs = "q0";
  St.InFlight.push_back(P);
  EXPECT_EQ(St.configKey(), "n2;|s5;");
}

TEST(PcfgStateTest, JoinRequiresSameShape) {
  PcfgState A = newState();
  A.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 2));
  PcfgState B = newState();
  B.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 3)); // Different node.
  EXPECT_FALSE(joinStates(A, B));
}

TEST(PcfgStateTest, JoinKeepsCommonBoundForm) {
  // Old: [1..1] with i == 1; new: [1..2] with i == 2 -> common ub form
  // i... both sides must expose the alias through their own graphs.
  PcfgState A = newState();
  A.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(1)), 2));
  A.Cg.assign("p0.i", LinearExpr(1));
  PcfgState B = newState();
  B.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(2)), 2));
  B.Cg.assign("p0.i", LinearExpr(2));
  ASSERT_TRUE(joinStates(A, B));
  // The joined bound keeps a stable representation and the CG covers both
  // iterations.
  EXPECT_TRUE(A.Cg.provesLE(LinearExpr(1), form("p0.i", 0)));
  EXPECT_TRUE(A.Cg.provesLE(form("p0.i", 0), LinearExpr(2)));
  // Whatever form was chosen, it must denote the range [1..i] semantically:
  // ub == i must be provable from the stored bound form.
  SymBound Ub = A.Sets[0].Range.ub();
  EXPECT_TRUE(Ub.provablyEQ(SymBound(form("p0.i", 0)), A.Cg));
}

TEST(PcfgStateTest, JoinFailsWithoutCommonForm) {
  PcfgState A = newState();
  A.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(1)), 2));
  PcfgState B = newState();
  B.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(2)), 2));
  // No variable relates 1 and 2 in either graph.
  EXPECT_FALSE(joinStates(A, B));
}

TEST(PcfgStateTest, WidenDropsUnstableValueBounds) {
  PcfgState A = newState();
  A.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(0), LinearExpr(0)), 2));
  A.Cg.assign("p0.i", LinearExpr(2));
  PcfgState B = newState();
  B.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(0), LinearExpr(0)), 2));
  B.Cg.assign("p0.i", LinearExpr(3));
  ASSERT_TRUE(widenStates(A, B));
  EXPECT_TRUE(A.Cg.provesLE(LinearExpr(2), form("p0.i", 0)));
  EXPECT_FALSE(A.Cg.constValue("p0.i").has_value());
}

TEST(PcfgStateTest, StatesEqualChecksRangesAndGraph) {
  PcfgState A = newState();
  A.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 2));
  PcfgState B = newState();
  B.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 2));
  EXPECT_TRUE(statesEqual(A, B));
  B.Cg.assign("p0.x", LinearExpr(1));
  EXPECT_FALSE(statesEqual(A, B));
}

TEST(PcfgStateTest, FactsIntersectOnJoin) {
  PcfgState A = newState();
  A.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 2));
  A.Facts.addRewrite("np", Poly::var("nrows").times(Poly::var("nrows")));
  A.Facts.addRewrite("ncols", Poly::var("nrows"));
  PcfgState B = newState();
  B.Sets.push_back(makeSet("p0", ProcRange::all(syms()), 2));
  B.Facts.addRewrite("np", Poly::var("nrows").times(Poly::var("nrows")));
  ASSERT_TRUE(joinStates(A, B));
  // Only the common fact survives.
  EXPECT_EQ(A.Facts.numRewrites(), 1u);
}

} // namespace
