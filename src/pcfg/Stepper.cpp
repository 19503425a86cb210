//===- pcfg/Stepper.cpp - Transfer functions, matching, normalization -----===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One step of the Figure 4 loop: the transfer functions, send-receive
/// matching (matchSendsRecvs), process-set splitting and merging, and
/// state normalization. Everything here computes; nothing commits. The
/// engine reaches this file only through pcfg/Step.h.
///
//===----------------------------------------------------------------------===//

#include "pcfg/Step.h"

#include "lang/ExprOps.h"
#include "pcfg/Matcher.h"
#include "pcfg/PartnerExpr.h"
#include "support/Casting.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>
#include <vector>

using namespace csdf;

GraphFacts GraphFacts::compute(const Cfg &Graph) {
  GraphFacts Facts;
  for (const CfgNode &N : Graph.nodes())
    if (N.Kind == CfgNodeKind::Assign || N.Kind == CfgNodeKind::Recv ||
        N.Kind == CfgNodeKind::Irecv)
      Facts.AssignedVars.insert(N.Var);
  RequestInfo Requests = RequestInfo::compute(Graph);
  for (const CfgNode &N : Graph.nodes())
    if (N.isWaitOp())
      Facts.WaitPlans.emplace(N.Id, Requests.resolveWait(N.Id));
  return Facts;
}

namespace {

/// One target piece when a process set splits.
struct SplitPiece {
  ProcRange Range;
  CfgNodeId Node = 0;
};

/// One step of the pCFG exploration: all transfer functions, matching,
/// and normalization, reading the popped state and writing a StepEffects
/// log. Steppers are cheap and single-use.
class Stepper {
public:
  explicit Stepper(const StepInputs &In)
      : Graph(In.Graph), Opts(In.Opts), AssignedVars(In.AssignedVars),
        WaitPlans(In.WaitPlans), HsmMemo(In.HsmMemo) {}

  /// Submits the initial state (the seeding half of Figure 4).
  void seed(PcfgState Init) { submit(std::move(Init)); }

  StepEffects takeEffects() { return std::move(Fx); }

private:
  //===--------------------------------------------------------------------===
  // Setup and small helpers
  //===--------------------------------------------------------------------===

  std::string scoped(const ProcSetEntry &Set, const std::string &Var) const {
    return PcfgState::scopedVar(Set, Var, AssignedVars);
  }

  /// True when \p E reads only `id` and globals (safe to re-evaluate any
  /// time).
  bool globalsOnly(const Expr *E) const {
    std::set<std::string> Vars;
    collectVars(E, Vars);
    for (const std::string &V : Vars)
      if (V != "id" && AssignedVars.count(V))
        return false;
    return true;
  }

  PartnerExpr classify(const PcfgState &St, const ProcSetEntry &Set,
                       const Expr *E) const {
    return classifyPartnerExpr(E, Set, AssignedVars, St.Cg);
  }

  /// Classified tag for a comm node (tag defaults to 0).
  std::optional<LinearExpr> classifyTag(const PcfgState &St,
                                        const ProcSetEntry &Set,
                                        const Expr *TagExpr) const {
    if (!TagExpr)
      return LinearExpr(0);
    PartnerExpr P = classify(St, Set, TagExpr);
    if (P.isUniform())
      return P.Value;
    return std::nullopt;
  }

  /// Degrades the result to Top. \p Kind records which resource bound
  /// tripped (BudgetKind::None for precision give-ups); \p Config the
  /// offending pCFG configuration, when one is identifiable. Logged; the
  /// committer's first-failure-wins rule decides which one sticks.
  void fail(BudgetKind Kind, const std::string &Reason,
            std::string Config = "") {
    if (tracingEnabled())
      std::fprintf(stderr, "TOP: %s\n", Reason.c_str());
    LocalTop = true;
    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::Fail;
    It.FailKind = Kind;
    It.FailReason = Reason;
    It.FailConfig = std::move(Config);
    Fx.Items.push_back(std::move(It));
  }

  /// Precision give-up (not resource exhaustion).
  void fail(const std::string &Reason) { fail(BudgetKind::None, Reason); }

  void logMatch(MatchRecord M) {
    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::Match;
    It.Match = std::move(M);
    Fx.Items.push_back(std::move(It));
  }

  /// Deduplication against already-reported bugs happens at commit time,
  /// where the full bug list is visible.
  void logTagConflict(CfgNodeId SendNode, CfgNodeId RecvNode) {
    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::TagConflict;
    It.ConflictSend = SendNode;
    It.ConflictRecv = RecvNode;
    Fx.Items.push_back(std::move(It));
  }

  std::string freshSetName() { return "s" + std::to_string(FreshSets++); }

  /// Human-readable range for match records: one representative form per
  /// bound, preferring globals/constants over alias lists.
  static std::string displayRange(const PcfgState &St,
                                  const ProcRange &Range) {
    const SymbolTable &Syms = St.Cg.symbols();
    auto Pick = [&](const SymBound &Bound) {
      for (const LinearExpr &Form : Bound.forms())
        if (Form.isGlobal(Syms))
          return Form.str(Syms);
      return Bound.primary().str(Syms);
    };
    return "[" + Pick(Range.lb()) + ".." + Pick(Range.ub()) + "]";
  }

  //===--------------------------------------------------------------------===
  // State normalization and the worklist
  //===--------------------------------------------------------------------===

  /// Drops empty sets/pendings, merges sets at the same node, collects
  /// dead freeze variables, canonicalizes. Returns false (and tops out)
  /// when a set's emptiness is undecidable nowhere... (never fails: only
  /// provably empty pieces were admitted).
  void normalize(PcfgState &St) {
    // Drop provably empty sets.
    for (size_t I = 0; I < St.Sets.size();) {
      if (St.Sets[I].Range.provablyEmpty(St.Cg)) {
        St.dropSetVars(St.Sets[I]);
        St.Sets.erase(St.Sets.begin() + static_cast<long>(I));
      } else {
        ++I;
      }
    }
    for (size_t I = 0; I < St.InFlight.size();) {
      const PendingSend &P = St.InFlight[I];
      bool Dead = P.IsAggregate ? P.AggRange.provablyEmpty(St.Cg)
                                : P.Senders.provablyEmpty(St.Cg);
      if (Dead)
        St.InFlight.erase(St.InFlight.begin() + static_cast<long>(I));
      else
        ++I;
    }

    // Merge sets that meet at the same CFG node.
    bool Merged = true;
    while (Merged) {
      Merged = false;
      for (size_t I = 0; I < St.Sets.size() && !Merged; ++I) {
        for (size_t J = I + 1; J < St.Sets.size() && !Merged; ++J) {
          if (St.Sets[I].Node != St.Sets[J].Node)
            continue;
          auto Combined =
              tryMerge(St.Sets[I].Range, St.Sets[J].Range, St.Cg);
          if (!Combined) {
            if (tracingEnabled())
              std::fprintf(stderr, "no-merge: %s and %s\n",
                           St.Sets[I].Range.str(St.Cg.symbols()).c_str(),
                           St.Sets[J].Range.str(St.Cg.symbols()).c_str());
            continue;
          }
          mergeSets(St, I, J, *Combined);
          Merged = true;
        }
      }
    }

    // Garbage-collect freeze variables of consumed pendings.
    St.Cg.removeVarsIf([&](std::string_view Ns, std::string_view) {
      return Ns[0] == 'q' &&
             std::none_of(St.InFlight.begin(), St.InFlight.end(),
                          [Ns](const PendingSend &P) {
                            return P.FreezeNs == Ns;
                          });
    });

    St.canonicalize();
  }

  /// Merges set J into set I (same CFG node, \p Combined covers both).
  void mergeSets(PcfgState &St, size_t I, size_t J,
                 const ProcRange &Combined) {
    ProcSetEntry &A = St.Sets[I];
    ProcSetEntry &B = St.Sets[J];
    std::string NewName = freshSetName();

    // Uniformity: a variable stays uniform only when uniform on both
    // sides and provably equal across the halves.
    NameSet NonUniform = A.NonUniform;
    NonUniform.insertAll(B.NonUniform);
    SymbolTable &Syms = *St.Cg.symbolsPtr();
    const VarId BNs = Syms.intern(B.Name);
    for (VarId Id : St.Cg.varIds()) {
      const std::string &Var = Syms.name(Id);
      if (!inNamespace(Var, A.Name))
        continue;
      std::string Base = Var.substr(A.Name.size() + 1);
      if (isAnchorName(Base))
        continue; // Anchor slots are per-set metadata.
      if (!NonUniform.count(Base) &&
          !St.Cg.provesEQ(LinearExpr(Id, 0),
                          LinearExpr(Syms.renamed(Id, BNs), 0)))
        NonUniform.insert(Base);
    }

    // Join the two sides' variable valuations under the new namespace.
    // Anchor the merged bounds into a scratch namespace *before* joining:
    // they may reference A's or B's variables, which do not survive the
    // merge. The scratch constraints agree on both join sides, so the
    // captured values survive the join.
    ProcRange Anchored = anchorRange(St, "mrg$", Combined);

    ConstraintGraph CgA = St.Cg;
    ConstraintGraph CgB = St.Cg;
    CgA.renameNamespace(A.Name, NewName);
    CgB.renameNamespace(B.Name, NewName);
    CgA.joinWith(CgB);
    St.Cg = std::move(CgA);
    // A's anchor slots (lo$/ub$) were renamed into NewName by the join
    // but describe A's old extent; drop them before the merged anchors
    // take those names.
    St.Cg.removeVarsIf([&](std::string_view Ns, std::string_view Base) {
      return Ns == NewName && isAnchorName(Base);
    });
    NamespaceMap FromScratch("mrg$", NewName);
    St.Cg.renameNamespaces(FromScratch);
    Anchored = Anchored.withRenamedVars(NamespaceRenamer(FromScratch, Syms),
                                        Syms);

    ProcSetEntry Combined2;
    Combined2.Name = NewName;
    Combined2.Range = Anchored;
    Combined2.Node = A.Node;
    Combined2.NonUniform = std::move(NonUniform);

    // Remove stale namespaces (B's vars survived in CgA, A's in CgB; both
    // partially; clean them).
    St.Cg.removeVarsIf([&](std::string_view Ns, std::string_view) {
      return Ns == A.Name || Ns == B.Name;
    });

    // Erase J first (higher index), then replace I.
    St.Sets.erase(St.Sets.begin() + static_cast<long>(J));
    St.Sets[I] = std::move(Combined2);
  }

  /// Reduces a range bound to one *stable* form. Stored bounds must never
  /// reference a variable that a later transfer can mutate: enriched alias
  /// forms (e.g. `i-1`) silently change meaning when `i` is reassigned.
  /// Constants and globals are stable as-is; anything namespaced is pinned
  /// into a fresh anchor variable in \p OwnerNs whose value the constraint
  /// graph tracks exactly (assignments to the original variable shift the
  /// relation, not the anchor). Aliases are recovered transiently via
  /// enrichment whenever a query needs them.
  SymBound anchorBound(PcfgState &St, const std::string &OwnerNs,
                       const char *Slot, const SymBound &Bound) {
    for (const LinearExpr &Form : Bound.forms())
      if (Form.isGlobal(St.Cg.symbols()))
        return SymBound(Form);
    LinearExpr Anchor = St.Cg.form(OwnerNs + "." + Slot);
    St.Cg.assign(Anchor.var(), Bound.primary());
    return SymBound(Anchor);
  }

  ProcRange anchorRange(PcfgState &St, const std::string &OwnerNs,
                        const ProcRange &Range) {
    return ProcRange(anchorBound(St, OwnerNs, "lo$", Range.lb()),
                     anchorBound(St, OwnerNs, "ub$", Range.ub()));
  }

  /// Replaces set \p Idx by \p Pieces (each with its own target node).
  /// Returns the indices of the new sets, in piece order.
  std::vector<size_t> replaceSet(PcfgState &St, size_t Idx,
                                 const std::vector<SplitPiece> &Pieces) {
    // Copy only what the loop reads: pushing pieces may reallocate Sets.
    const std::string OldName = St.Sets[Idx].Name;
    const NameSet OldNonUniform = St.Sets[Idx].NonUniform;
    std::vector<size_t> NewIndices;
    for (const SplitPiece &Piece : Pieces) {
      ProcSetEntry E;
      E.Name = freshSetName();
      E.Range = Piece.Range;
      E.Node = Piece.Node;
      E.NonUniform = OldNonUniform;
      E.Range = anchorRange(St, E.Name, E.Range);
      // Give the piece the old set's variable valuation: at split time all
      // pieces agree with the parent exactly. The parent's `lo$`/`ub$`
      // anchor slots are per-set metadata, not program state — copying
      // them would contradict the piece's own freshly assigned anchors.
      // The last piece takes the parent's variables over, which drops the
      // parent's namespace.
      if (&Piece != &Pieces.back())
        St.Cg.copyNamespace(OldName, E.Name, /*SkipAnchors=*/true);
      else
        St.Cg.moveNamespace(OldName, E.Name);
      NewIndices.push_back(St.Sets.size());
      St.Sets.push_back(std::move(E));
    }
    if (Pieces.empty())
      St.dropSetVars(St.Sets[Idx]);
    St.Sets.erase(St.Sets.begin() + static_cast<long>(Idx));
    for (size_t &I : NewIndices)
      --I; // Account for the erased entry before them.
    return NewIndices;
  }

  /// Submits a successor state: joins/widens with any stored state at the
  /// same configuration and enqueues when something changed.
  void submit(PcfgState St) {
    if (tracingEnabled())
      std::fprintf(stderr, "submit(raw): %s\n", St.setsStr().c_str());
    if (!St.Cg.isFeasible()) {
      // Contradictory facts: this successor describes no execution.
      if (tracingEnabled())
        std::fprintf(stderr, "submit: infeasible state dropped\n");
      return;
    }
    normalize(St);
    if (St.Sets.size() > Opts.MaxProcSets) {
      fail(BudgetKind::ProcSets,
           "process-set bound p=" + std::to_string(Opts.MaxProcSets) +
               " exceeded",
           St.configKey());
      return;
    }

    // Terminal state?
    bool AllExit = true;
    for (const ProcSetEntry &Set : St.Sets)
      if (!Graph.node(Set.Node).isExit())
        AllExit = false;
    if (AllExit) {
      for (const PendingSend &P : St.InFlight) {
        StepEffects::Item It;
        It.K = StepEffects::Item::Kind::Leak;
        It.Leak = {AnalysisBug::Kind::MessageLeak, P.SendNode, SourceLoc(),
                   "message from " + P.Senders.str(St.Cg.symbols()) +
                       " sent at " +
                       Graph.nodeLabel(P.SendNode) + " is never received"};
        Fx.Items.push_back(std::move(It));
      }
      recordFinalSnapshot(St);
      return;
    }

    std::string Key = St.configKey();
    if (tracingEnabled())
      std::fprintf(stderr, "submit: key=%s  %s\n", Key.c_str(),
                   St.setsStr().c_str());

    // Close before the state leaves the step: the table, join
    // accumulators and captured traces share it copy-on-write, and a lazy
    // closure would then mutate a shared block in place. Every shared
    // block stays closed, which is also what lets the ClosureMemo (shared
    // by the sessions of a threads-mode batch) and MemoSnapshot hand out
    // and serialize blocks without copying.
    St.Cg.close();

    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::Submit;
    It.SubKey = std::move(Key);
    It.Sub = std::move(St);
    Fx.Items.push_back(std::move(It));
  }

  //===--------------------------------------------------------------------===
  // Transfer functions
  //===--------------------------------------------------------------------===

  /// Applies `Var := E` on set \p Idx of \p St.
  void transferAssign(PcfgState &St, size_t Idx, const std::string &Var,
                      const Expr *E) {
    ProcSetEntry &Set = St.Sets[Idx];
    std::string Target = scoped(Set, Var);
    bool Singleton = Set.Range.provablySingleton(St.Cg);

    if (auto Offset = matchIdPlusC(E)) {
      if (Singleton) {
        St.Cg.assign(Target, Set.Range.lb().primary().plus(*Offset));
        Set.NonUniform.erase(Var);
        return;
      }
      St.Cg.havoc(Target);
      Set.NonUniform.insert(Var);
      return;
    }

    PartnerExpr P = classify(St, Set, E);
    if (P.isUniform()) {
      St.Cg.assign(Target, P.Value);
      Set.NonUniform.erase(Var);
      return;
    }

    // Complex right-hand side: value unknown.
    St.Cg.havoc(Target);
    std::set<std::string> Vars;
    collectVars(E, Vars);
    bool MayDiffer = dependsOnId(E) || containsInput(E);
    for (const std::string &V : Vars)
      if (Set.NonUniform.count(V))
        MayDiffer = true;
    if (MayDiffer && !Singleton)
      Set.NonUniform.insert(Var);
    else
      Set.NonUniform.erase(Var);
  }

  /// Records what a print statement provably prints.
  void transferPrint(PcfgState &St, size_t Idx, CfgNodeId Node,
                     const Expr *E) {
    ProcSetEntry &Set = St.Sets[Idx];
    PrintFact Fact;
    Fact.Node = Node;
    Fact.SetRange = Set.Range.str(St.Cg.symbols());
    PartnerExpr P = classify(St, Set, E);
    if (P.isUniform()) {
      if (P.Value.isConstant())
        Fact.Value = P.Value.constant();
      else if (auto C = St.Cg.constValue(P.Value.var()))
        Fact.Value = *C + P.Value.constant();
    }
    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::Print;
    It.Print = std::move(Fact);
    Fx.Items.push_back(std::move(It));
  }

  /// Registers an assume's fact into the FactEnv and (when linear) the
  /// constraint graph.
  void transferAssume(PcfgState &St, size_t Idx, const Expr *Cond) {
    if (globalsOnly(Cond))
      addAssumeFact(St.Facts, Cond);
    assumeRelational(St, Idx, Cond, /*Positive=*/true);
  }

  /// Conjoins a relational condition (or its negation) into the graph
  /// when it is linear; silently keeps Top behaviour otherwise.
  void assumeRelational(PcfgState &St, size_t Idx, const Expr *Cond,
                        bool Positive) {
    const auto *B = dyn_cast<BinaryExpr>(Cond);
    if (!B)
      return;
    if (Positive && B->op() == BinaryOp::And) {
      assumeRelational(St, Idx, B->lhs(), true);
      assumeRelational(St, Idx, B->rhs(), true);
      return;
    }
    if (!Positive && B->op() == BinaryOp::Or) {
      assumeRelational(St, Idx, B->lhs(), false);
      assumeRelational(St, Idx, B->rhs(), false);
      return;
    }
    ProcSetEntry &Set = St.Sets[Idx];
    PartnerExpr L = classify(St, Set, B->lhs());
    PartnerExpr R = classify(St, Set, B->rhs());
    if (!L.isUniform() || !R.isUniform())
      return;
    BinaryOp Op = B->op();
    if (!Positive) {
      switch (Op) {
      case BinaryOp::Eq:
        Op = BinaryOp::Ne;
        break;
      case BinaryOp::Ne:
        Op = BinaryOp::Eq;
        break;
      case BinaryOp::Lt:
        Op = BinaryOp::Ge;
        break;
      case BinaryOp::Le:
        Op = BinaryOp::Gt;
        break;
      case BinaryOp::Gt:
        Op = BinaryOp::Le;
        break;
      case BinaryOp::Ge:
        Op = BinaryOp::Lt;
        break;
      default:
        return;
      }
    }
    switch (Op) {
    case BinaryOp::Eq:
      St.Cg.addEQ(L.Value, R.Value);
      return;
    case BinaryOp::Ne:
      return; // Not expressible as a difference constraint.
    case BinaryOp::Lt:
      St.Cg.addLE(L.Value, R.Value.plus(-1));
      return;
    case BinaryOp::Le:
      St.Cg.addLE(L.Value, R.Value);
      return;
    case BinaryOp::Gt:
      St.Cg.addLE(R.Value, L.Value.plus(-1));
      return;
    case BinaryOp::Ge:
      St.Cg.addLE(R.Value, L.Value);
      return;
    default:
      return;
    }
  }

  //===--------------------------------------------------------------------===
  // Branches
  //===--------------------------------------------------------------------===

  /// Handles a branch by set \p Idx. Appends successor states.
  bool transferBranch(PcfgState St, size_t Idx) {
    const CfgNode &Node = Graph.node(St.Sets[Idx].Node);
    const Expr *Cond = Node.Cond;
    CfgNodeId TrueSucc = Graph.branchSuccessor(Node.Id, true);
    CfgNodeId FalseSucc = Graph.branchSuccessor(Node.Id, false);

    if (dependsOnId(Cond))
      return splitOnIdBranch(std::move(St), Idx, Cond, TrueSucc, FalseSucc);

    ProcSetEntry &Set = St.Sets[Idx];
    // Data-dependent branch of a multi-process set: only exact when the
    // decision is uniform across the set.
    if (!Set.Range.provablySingleton(St.Cg)) {
      std::set<std::string> Vars;
      collectVars(Cond, Vars);
      for (const std::string &V : Vars) {
        if (Set.NonUniform.count(V)) {
          fail("branch at " + Graph.nodeLabel(Node.Id) +
               " depends on non-uniform variable '" + V +
               "' of a multi-process set");
          return false;
        }
      }
    }

    // Explore both outcomes, pruning infeasible ones.
    PcfgState TrueSt = St;
    TrueSt.Sets[Idx].Node = TrueSucc;
    assumeRelational(TrueSt, Idx, Cond, /*Positive=*/true);
    if (globalsOnly(Cond))
      addAssumeFact(TrueSt.Facts, Cond);
    if (TrueSt.Cg.isFeasible())
      submit(std::move(TrueSt));

    PcfgState FalseSt = std::move(St);
    FalseSt.Sets[Idx].Node = FalseSucc;
    assumeRelational(FalseSt, Idx, Cond, /*Positive=*/false);
    if (FalseSt.Cg.isFeasible())
      submit(std::move(FalseSt));
    return true;
  }

  /// Provably larger / smaller of two bounds, or nullopt.
  static std::optional<SymBound> maxBound(const SymBound &A,
                                          const SymBound &B,
                                          const ConstraintGraph &Cg) {
    if (A.provablyLE(B, Cg))
      return B;
    if (B.provablyLE(A, Cg))
      return A;
    return std::nullopt;
  }
  static std::optional<SymBound> minBound(const SymBound &A,
                                          const SymBound &B,
                                          const ConstraintGraph &Cg) {
    if (A.provablyLE(B, Cg))
      return A;
    if (B.provablyLE(A, Cg))
      return B;
    return std::nullopt;
  }

  /// Splits set \p Idx over an id-relational branch.
  bool splitOnIdBranch(PcfgState St, size_t Idx, const Expr *Cond,
                       CfgNodeId TrueSucc, CfgNodeId FalseSucc) {
    const auto *B = dyn_cast<BinaryExpr>(Cond);
    const ProcSetEntry &Set = St.Sets[Idx];
    std::string Where = " at " + Graph.nodeLabel(Set.Node);
    if (!B) {
      fail("unsupported id-dependent branch" + Where);
      return false;
    }
    // Normalize to `id <op> pivot`.
    BinaryOp Op = B->op();
    const Expr *IdSide = nullptr;
    const Expr *PivotE = nullptr;
    if (const auto *V = dyn_cast<VarRefExpr>(B->lhs());
        V && V->isProcessId()) {
      IdSide = B->lhs();
      PivotE = B->rhs();
    } else if (const auto *V2 = dyn_cast<VarRefExpr>(B->rhs());
               V2 && V2->isProcessId()) {
      IdSide = B->rhs();
      PivotE = B->lhs();
      switch (Op) {
      case BinaryOp::Lt:
        Op = BinaryOp::Gt;
        break;
      case BinaryOp::Le:
        Op = BinaryOp::Ge;
        break;
      case BinaryOp::Gt:
        Op = BinaryOp::Lt;
        break;
      case BinaryOp::Ge:
        Op = BinaryOp::Le;
        break;
      default:
        break;
      }
    }
    if (!IdSide || dependsOnId(PivotE)) {
      fail("unsupported id-dependent branch" + Where);
      return false;
    }
    PartnerExpr Pivot = classify(St, Set, PivotE);
    if (!Pivot.isUniform()) {
      fail("id compared against non-uniform expression" + Where);
      return false;
    }
    SymBound E(Pivot.Value);
    E.enrich(St.Cg);

    const SymBound &Lb = Set.Range.lb();
    const SymBound &Ub = Set.Range.ub();

    // Piece boundaries per operator; nullopt bound = unclipped.
    struct PieceSpec {
      std::optional<SymBound> Lo, Hi;
      bool TakeTrue;
    };
    std::vector<PieceSpec> Specs;
    switch (Op) {
    case BinaryOp::Eq:
      Specs = {{E, E, true}, {std::nullopt, E.plus(-1), false},
               {E.plus(1), std::nullopt, false}};
      break;
    case BinaryOp::Ne:
      Specs = {{E, E, false}, {std::nullopt, E.plus(-1), true},
               {E.plus(1), std::nullopt, true}};
      break;
    case BinaryOp::Lt:
      Specs = {{std::nullopt, E.plus(-1), true}, {E, std::nullopt, false}};
      break;
    case BinaryOp::Le:
      Specs = {{std::nullopt, E, true}, {E.plus(1), std::nullopt, false}};
      break;
    case BinaryOp::Gt:
      Specs = {{E.plus(1), std::nullopt, true}, {std::nullopt, E, false}};
      break;
    case BinaryOp::Ge:
      Specs = {{E, std::nullopt, true}, {std::nullopt, E.plus(-1), false}};
      break;
    default:
      fail("unsupported id-dependent branch operator" + Where);
      return false;
    }

    std::vector<SplitPiece> Pieces;
    for (const PieceSpec &Spec : Specs) {
      std::optional<SymBound> Lo =
          Spec.Lo ? maxBound(Lb, *Spec.Lo, St.Cg) : std::optional(Lb);
      std::optional<SymBound> Hi =
          Spec.Hi ? minBound(Ub, *Spec.Hi, St.Cg) : std::optional(Ub);
      if (!Lo || !Hi) {
        fail("cannot order split bounds" + Where);
        return false;
      }
      ProcRange Piece(*Lo, *Hi);
      // Provably empty pieces vanish; pieces with unknown emptiness are
      // kept as possibly-empty sets and deleted if and when their
      // emptiness is discovered.
      if (Piece.provablyEmpty(St.Cg))
        continue;
      Pieces.push_back({Piece, Spec.TakeTrue ? TrueSucc : FalseSucc});
    }
    replaceSet(St, Idx, Pieces);
    submit(std::move(St));
    return true;
  }

  //===--------------------------------------------------------------------===
  // Sends, receives and matching
  //===--------------------------------------------------------------------===

  //===--------------------------------------------------------------------===
  // Aggregated send loops (Section X)
  //===--------------------------------------------------------------------===

  /// The recognized shape `branch(v <= UB) { send VAL -> v; v = v + 1; }`.
  struct SendLoop {
    CfgNodeId Branch = 0;
    CfgNodeId SendNode = 0;
    std::string Var;
    const Expr *UpperBound = nullptr;
    const Expr *ValueExpr = nullptr;
    const Expr *TagExpr = nullptr;
    CfgNodeId ExitNode = 0;
  };

  /// Recognizes a send loop rooted at branch node \p BranchId.
  std::optional<SendLoop> matchSendLoop(CfgNodeId BranchId,
                                        SymbolTable &Syms) const {
    const CfgNode &Branch = Graph.node(BranchId);
    if (!Branch.isBranch())
      return std::nullopt;
    const auto *Cond = dyn_cast<BinaryExpr>(Branch.Cond);
    if (!Cond || Cond->op() != BinaryOp::Le)
      return std::nullopt;
    const auto *Var = dyn_cast<VarRefExpr>(Cond->lhs());
    if (!Var || Var->isProcessId() || Var->isProcessCount())
      return std::nullopt;

    SendLoop Loop;
    Loop.Branch = BranchId;
    Loop.Var = Var->name();
    Loop.UpperBound = Cond->rhs();
    Loop.ExitNode = Graph.branchSuccessor(BranchId, false);

    // Body: exactly Send(dest == v) then v = v + 1 back to the branch.
    CfgNodeId SendId = Graph.branchSuccessor(BranchId, true);
    const CfgNode &Send = Graph.node(SendId);
    if (Send.Kind != CfgNodeKind::Send)
      return std::nullopt;
    const auto *Dest = dyn_cast<VarRefExpr>(Send.Partner);
    if (!Dest || Dest->name() != Loop.Var)
      return std::nullopt;
    if (Send.Succs.size() != 1)
      return std::nullopt;
    CfgNodeId StepId = Graph.soleSuccessor(SendId);
    const CfgNode &Step = Graph.node(StepId);
    if (Step.Kind != CfgNodeKind::Assign || Step.Var != Loop.Var)
      return std::nullopt;
    auto Inc = matchIdPlusC(Step.Value);
    (void)Inc; // Step must be v = v + 1 (id-form does not apply here).
    auto Lin = LinearExpr::fromExpr(Step.Value, Syms);
    if (!Lin || !Lin->hasVar() || Syms.name(Lin->var()) != Loop.Var ||
        Lin->constant() != 1)
      return std::nullopt;
    if (Step.Succs.size() != 1 || Graph.soleSuccessor(StepId) != BranchId)
      return std::nullopt;

    Loop.SendNode = SendId;
    Loop.ValueExpr = Send.Value;
    Loop.TagExpr = Send.Tag;
    return Loop;
  }

  /// Summarizes the whole remaining send loop of set \p Idx (sitting at
  /// the loop branch) into one aggregated pending record and advances the
  /// set past the loop. Returns false when preconditions fail (caller
  /// falls back to per-iteration exploration).
  bool emitAggregateSendLoop(PcfgState &St, size_t Idx,
                             const SendLoop &Loop) {
    ProcSetEntry &Set = St.Sets[Idx];
    if (!Set.Range.provablySingleton(St.Cg))
      return false;
    if (St.InFlight.size() >= Opts.MaxInFlight)
      return false;

    // Loop bounds: v's current value .. UB (uniform).
    std::string ScopedVar = scoped(Set, Loop.Var);
    PartnerExpr Ub = classify(St, Set, Loop.UpperBound);
    if (!Ub.isUniform())
      return false;
    SymBound Lo(St.Cg.form(ScopedVar));
    SymBound Hi(Ub.Value);
    ProcRange Agg(Lo, Hi);
    // The summary asserts "the loop body ran for v = lo..UB and exited
    // with v == UB+1", which is only exact when the loop provably runs at
    // least once. Otherwise fall back to per-iteration exploration.
    if (!Agg.provablyNonEmpty(St.Cg))
      return false;

    PendingSend P;
    P.SendNode = Loop.SendNode;
    P.Seq = St.NextSeq++;
    P.FreezeNs = "q" + std::to_string(P.Seq);
    P.IsAggregate = true;

    if (auto Tag = classifyTag(St, Set, Loop.TagExpr)) {
      if (!Tag->isGlobal(St.Cg.symbols())) {
        P.Tag = St.Cg.form(P.FreezeNs + ".tag");
        St.Cg.assign(P.Tag->var(), *Tag);
      } else {
        P.Tag = Tag;
      }
    }

    // The per-iteration value: uniform only if it does not read the loop
    // variable (every receiver then gets the same value).
    PartnerExpr Value = classify(St, Set, Loop.ValueExpr);
    std::set<std::string> ValueVars;
    collectVars(Loop.ValueExpr, ValueVars);
    if (Value.isUniform() && !ValueVars.count(Loop.Var)) {
      if (!Value.Value.isGlobal(St.Cg.symbols())) {
        P.Value = St.Cg.form(P.FreezeNs + ".val");
        St.Cg.assign(P.Value->var(), Value.Value);
      } else {
        P.Value = Value.Value;
      }
    }

    P.Senders = ProcRange(anchorBound(St, P.FreezeNs, "lo", Set.Range.lb()),
                          anchorBound(St, P.FreezeNs, "hi", Set.Range.ub()));
    P.AggRange = ProcRange(anchorBound(St, P.FreezeNs, "alo", Lo),
                           anchorBound(St, P.FreezeNs, "ahi", Hi));
    St.InFlight.push_back(std::move(P));

    // The sender has executed the entire loop: v = UB + 1, exit edge.
    St.Cg.assign(ScopedVar, Hi.primary().plus(1));
    Set.Node = Loop.ExitNode;
    if (tracingEnabled())
      std::fprintf(stderr, "aggregated send loop at n%u: range %s\n",
                   Loop.SendNode, St.InFlight.back().AggRange.str(St.Cg.symbols()).c_str());
    return true;
  }

  /// Matches an aggregated pending against a blocked receiver set: each
  /// rank in the aggregate range holds exactly one message from the
  /// singleton sender, so receivers whose claimed source equals the
  /// sender's rank match en masse.
  std::optional<MatchResult> aggregateMatch(const PcfgState &St,
                                            const PendingSend &P,
                                            const CommDesc &Recv,
                                            bool &TagConflict) const {
    TagConflict = false;
    if (!P.Tag || !Recv.Tag)
      return std::nullopt;
    if (!St.Cg.provesEQ(*P.Tag, *Recv.Tag)) {
      if (St.Cg.provesLE(P.Tag->plus(1), *Recv.Tag) ||
          St.Cg.provesLE(Recv.Tag->plus(1), *P.Tag))
        TagConflict = true;
      return std::nullopt;
    }

    const SymBound &SenderRank = P.Senders.lb();
    ProcRange Candidates = P.AggRange;

    if (Recv.Partner.isUniform()) {
      SymBound Claimed(Recv.Partner.Value);
      Claimed.enrich(St.Cg);
      if (!SenderRank.provablyEQ(Claimed, St.Cg))
        return std::nullopt;
      auto RProcs = tryIntersect(Candidates, Recv.Range, St.Cg);
      if (!RProcs)
        return std::nullopt;
      MatchResult M;
      M.SProcs = P.Senders;
      M.RProcs = *RProcs;
      M.SenderFull = true; // The sender set itself is never split.
      if (!M.RProcs.provablyNonEmpty(St.Cg))
        return std::nullopt;
      if (provablyEqual(M.RProcs, Recv.Range, St.Cg)) {
        M.ReceiverFull = true;
      } else {
        auto Diff = tryDifference(Recv.Range, M.RProcs, St.Cg);
        if (!Diff)
          return std::nullopt;
        M.ReceiverFull = false;
        M.ReceiverRest = *Diff;
      }
      // The aggregate-range leftover rides in SenderRest (consumed by the
      // aggregate-aware pending update).
      auto AggDiff = tryDifference(Candidates, M.RProcs, St.Cg);
      if (!AggDiff)
        return std::nullopt;
      M.SenderRest = *AggDiff;
      return M;
    }

    if (Recv.Partner.isIdPlusC()) {
      // Claimed source id + c equals the sender only for the single rank
      // senderRank - c.
      SymBound R0 = SenderRank.plus(-Recv.Partner.Offset);
      ProcRange Single(R0, R0);
      if (!provablyContains(Candidates, Single, St.Cg) ||
          !provablyContains(Recv.Range, Single, St.Cg))
        return std::nullopt;
      MatchResult M;
      M.SProcs = P.Senders;
      M.RProcs = Single;
      M.SenderFull = true;
      auto RDiff = tryDifference(Recv.Range, Single, St.Cg);
      auto ADiff = tryDifference(Candidates, Single, St.Cg);
      if (!RDiff || !ADiff)
        return std::nullopt;
      M.ReceiverFull =
          !RDiff->Before.has_value() && !RDiff->After.has_value();
      M.ReceiverRest = *RDiff;
      M.SenderRest = *ADiff;
      return M;
    }
    return std::nullopt;
  }

  /// The recognized shape `branch(v <= UB) { recv W <- v; v = v + 1; }`.
  struct RecvLoop {
    CfgNodeId Branch = 0;
    CfgNodeId RecvNode = 0;
    std::string Var;     ///< Loop variable (also the source expression).
    std::string RecvVar; ///< Variable received into.
    const Expr *UpperBound = nullptr;
    const Expr *TagExpr = nullptr;
    CfgNodeId ExitNode = 0;
  };

  /// Recognizes a receive loop rooted at branch node \p BranchId.
  std::optional<RecvLoop> matchRecvLoop(CfgNodeId BranchId,
                                        SymbolTable &Syms) const {
    const CfgNode &Branch = Graph.node(BranchId);
    if (!Branch.isBranch())
      return std::nullopt;
    const auto *Cond = dyn_cast<BinaryExpr>(Branch.Cond);
    if (!Cond || Cond->op() != BinaryOp::Le)
      return std::nullopt;
    const auto *Var = dyn_cast<VarRefExpr>(Cond->lhs());
    if (!Var || Var->isProcessId() || Var->isProcessCount())
      return std::nullopt;

    RecvLoop Loop;
    Loop.Branch = BranchId;
    Loop.Var = Var->name();
    Loop.UpperBound = Cond->rhs();
    Loop.ExitNode = Graph.branchSuccessor(BranchId, false);

    CfgNodeId RecvId = Graph.branchSuccessor(BranchId, true);
    const CfgNode &Recv = Graph.node(RecvId);
    if (Recv.Kind != CfgNodeKind::Recv || !Recv.Partner)
      return std::nullopt;
    const auto *Src = dyn_cast<VarRefExpr>(Recv.Partner);
    if (!Src || Src->name() != Loop.Var)
      return std::nullopt;
    if (Recv.Succs.size() != 1)
      return std::nullopt;
    CfgNodeId StepId = Graph.soleSuccessor(RecvId);
    const CfgNode &Step = Graph.node(StepId);
    if (Step.Kind != CfgNodeKind::Assign || Step.Var != Loop.Var)
      return std::nullopt;
    auto Lin = LinearExpr::fromExpr(Step.Value, Syms);
    if (!Lin || !Lin->hasVar() || Syms.name(Lin->var()) != Loop.Var ||
        Lin->constant() != 1)
      return std::nullopt;
    if (Step.Succs.size() != 1 || Graph.soleSuccessor(StepId) != BranchId)
      return std::nullopt;

    Loop.RecvNode = RecvId;
    Loop.RecvVar = Recv.Var;
    Loop.TagExpr = Recv.Tag;
    return Loop;
  }

  /// Consumes a whole in-flight sender block through a receive loop: the
  /// singleton receiver's loop over v = lo..UB receives one message from
  /// each rank in [lo..UB]; a pending with uniform destination equal to
  /// the receiver's rank and sender range exactly [lo..UB] satisfies the
  /// entire loop at once. Returns false when preconditions fail.
  bool consumeRecvLoop(PcfgState &St, size_t Idx, const RecvLoop &Loop) {
    ProcSetEntry &Set = St.Sets[Idx];
    if (!Set.Range.provablySingleton(St.Cg))
      return false;

    std::string ScopedVar = scoped(Set, Loop.Var);
    PartnerExpr Ub = classify(St, Set, Loop.UpperBound);
    if (!Ub.isUniform())
      return false;
    SymBound Lo(St.Cg.form(ScopedVar));
    SymBound Hi(Ub.Value);
    ProcRange Sources(Lo, Hi);
    if (!Sources.provablyNonEmpty(St.Cg))
      return false;

    std::optional<LinearExpr> WantTag = classifyTag(St, Set, Loop.TagExpr);
    if (!WantTag)
      return false;

    for (size_t P = 0; P < St.InFlight.size(); ++P) {
      const PendingSend &Pending = St.InFlight[P];
      if (Pending.IsAggregate || !Pending.DestUniform || !Pending.Tag)
        continue;
      // Destination must be this receiver's rank; tag must agree; the
      // sender block must be exactly the loop's source range; earlier
      // pendings must provably not interfere.
      SymBound Dest(*Pending.DestUniform);
      Dest.enrich(St.Cg);
      if (!Dest.provablyEQ(Set.Range.lb(), St.Cg))
        continue;
      if (!St.Cg.provesEQ(*Pending.Tag, *WantTag))
        continue;
      if (!provablyEqual(Pending.Senders, Sources, St.Cg))
        continue;
      bool Interferes = false;
      for (size_t Q = 0; Q < P && !Interferes; ++Q) {
        const PendingSend &Earlier = St.InFlight[Q];
        if (provablyDisjoint(Earlier.Senders, Pending.Senders, St.Cg))
          continue;
        auto Image = pendingImage(Earlier);
        if (Image && provablyDisjoint(*Image, Set.Range, St.Cg))
          continue;
        Interferes = true;
      }
      if (Interferes)
        continue;

      logMatch({Pending.SendNode, Loop.RecvNode,
                displayRange(St, Pending.Senders),
                displayRange(St, Set.Range)});
      St.InFlight.erase(St.InFlight.begin() + static_cast<long>(P));

      // The receiver executed the whole loop: the received values come
      // from distinct senders, so the variable is unknown (but uniform on
      // this singleton).
      St.Cg.havoc(scoped(Set, Loop.RecvVar));
      Set.NonUniform.erase(Loop.RecvVar);
      St.Cg.assign(ScopedVar, Hi.primary().plus(1));
      Set.Node = Loop.ExitNode;
      if (tracingEnabled())
        std::fprintf(stderr, "aggregated recv loop at n%u consumed %s\n",
                     Loop.RecvNode, Sources.str(St.Cg.symbols()).c_str());
      return true;
    }
    return false;
  }

  /// Buffered-send emission: freeze the send's expressions and advance.
  bool emitSend(PcfgState &St, size_t Idx) {
    if (St.InFlight.size() >= Opts.MaxInFlight) {
      fail(BudgetKind::InFlight,
           "in-flight send bound exceeded (aggregation of unbounded "
           "non-blocking sends is future work, Section X)",
           St.configKey());
      return false;
    }
    ProcSetEntry &Set = St.Sets[Idx];
    const CfgNode &Node = Graph.node(Set.Node);

    PendingSend P;
    P.SendNode = Node.Id;
    P.Seq = St.NextSeq++;
    P.FreezeNs = "q" + std::to_string(P.Seq);

    // Freeze a uniform LinearExpr into the pending's namespace when it
    // references a mutable (namespaced) variable.
    auto Freeze = [&](const LinearExpr &Value,
                      const std::string &Slot) -> LinearExpr {
      if (Value.isGlobal(St.Cg.symbols()))
        return Value;
      LinearExpr Frozen = St.Cg.form(P.FreezeNs + "." + Slot);
      St.Cg.assign(Frozen.var(), Value);
      return Frozen;
    };

    PartnerExpr Dest = classify(St, Set, Node.Partner);
    if (Dest.isIdPlusC()) {
      P.DestIsIdPlusC = true;
      P.DestOffset = Dest.Offset;
    } else if (Dest.isUniform()) {
      P.DestUniform = Freeze(Dest.Value, "dest");
    }
    P.DestExprAst = Node.Partner;
    P.DestGlobalsOnly = globalsOnly(Node.Partner);
    if (!P.DestIsIdPlusC && !P.DestUniform && !P.DestGlobalsOnly) {
      fail("cannot represent in-flight send destination at " +
           Graph.nodeLabel(Node.Id));
      return false;
    }

    if (auto Tag = classifyTag(St, Set, Node.Tag))
      P.Tag = Freeze(*Tag, "tag");

    PartnerExpr Value = classify(St, Set, Node.Value);
    if (Value.isUniform())
      P.Value = Freeze(Value.Value, "val");
    else if (auto Offset = matchIdPlusC(Node.Value);
             Offset && Set.Range.provablySingleton(St.Cg))
      P.Value = Freeze(Set.Range.lb().primary().plus(*Offset), "val");

    // Freeze the sender bounds.
    auto FreezeBound = [&](const SymBound &Bound,
                           const std::string &Slot) -> SymBound {
      const LinearExpr &Primary = Bound.primary();
      if (Primary.isGlobal(St.Cg.symbols()))
        return Bound;
      LinearExpr Frozen = St.Cg.form(P.FreezeNs + "." + Slot);
      St.Cg.assign(Frozen.var(), Primary);
      return SymBound(Frozen);
    };
    P.Senders = ProcRange(FreezeBound(Set.Range.lb(), "lo"),
                          FreezeBound(Set.Range.ub(), "hi"));

    St.InFlight.push_back(std::move(P));
    Set.Node = Graph.soleSuccessor(Set.Node);
    return true;
  }

  /// Builds the CommDesc of a pending send.
  CommDesc descOfPending(const PendingSend &P) const {
    CommDesc D;
    D.Node = P.SendNode;
    D.Range = P.Senders;
    if (P.DestIsIdPlusC) {
      D.Partner.TheKind = PartnerExpr::Kind::IdPlusC;
      D.Partner.Offset = P.DestOffset;
    } else if (P.DestUniform) {
      D.Partner.TheKind = PartnerExpr::Kind::Uniform;
      D.Partner.Value = *P.DestUniform;
    }
    D.PartnerAst = P.DestExprAst;
    D.PartnerGlobalsOnly = P.DestGlobalsOnly;
    D.Tag = P.Tag;
    return D;
  }

  /// Builds the CommDesc of a process set blocked at a send or recv node.
  /// \p Payload overrides the node supplying Partner/Tag — used for a set
  /// blocked at a wait that completes an irecv: the set sits at the wait,
  /// but the communication payload lives on the posting node. Evaluating
  /// the posting's expressions at the wait is sound because resolveWait
  /// proved partner/tag stable between post and wait.
  CommDesc descOfSet(const PcfgState &St, const ProcSetEntry &Set,
                     const CfgNode *Payload = nullptr) const {
    const CfgNode &Node = Payload ? *Payload : Graph.node(Set.Node);
    CommDesc D;
    D.Node = Node.Id;
    D.Range = Set.Range;
    D.Range.enrich(St.Cg);
    D.Partner = classify(St, Set, Node.Partner);
    D.PartnerAst = Node.Partner;
    D.PartnerGlobalsOnly = globalsOnly(Node.Partner);
    D.Tag = classifyTag(St, Set, Node.Tag);
    return D;
  }

  /// The destination image of a pending send, for FIFO ordering checks.
  std::optional<ProcRange> pendingImage(const PendingSend &P) const {
    if (P.IsAggregate)
      return P.AggRange;
    if (P.DestIsIdPlusC)
      return P.Senders.shifted(P.DestOffset);
    if (P.DestUniform)
      return ProcRange(SymBound(*P.DestUniform), SymBound(*P.DestUniform));
    return std::nullopt;
  }

  /// FIFO safety: an earlier pending must provably not deliver to the
  /// candidate receivers from the candidate senders.
  bool fifoSafe(const PcfgState &St, size_t PendingIdx,
                const MatchResult &M) const {
    for (size_t I = 0; I < PendingIdx; ++I) {
      const PendingSend &Earlier = St.InFlight[I];
      if (provablyDisjoint(Earlier.Senders, M.SProcs, St.Cg))
        continue;
      auto Image = pendingImage(Earlier);
      if (Image && provablyDisjoint(*Image, M.RProcs, St.Cg))
        continue;
      return false;
    }
    return true;
  }

  /// Applies a successful match: advances/splits the receiver set,
  /// advances/splits the sender (set or pending), propagates the sent
  /// value, and records the match. Then submits the successor.
  void applyMatch(PcfgState St, std::optional<size_t> SenderSetIdx,
                  std::optional<size_t> PendingIdx, size_t RecvIdx,
                  const MatchResult &MIn, std::optional<LinearExpr> Value,
                  CfgNodeId SendNode) {
    // The match ranges may reference variables of the sets about to be
    // replaced (whose namespaces are dropped). Pin every range into
    // scratch anchors first; the per-piece anchors in replaceSet then
    // chain off these, and the scratch namespace is collected at the end.
    unsigned ScratchId = 0;
    auto Scratch = [&](const ProcRange &R) {
      return anchorRange(St, "mt$" + std::to_string(ScratchId++), R);
    };
    MatchResult M = MIn;
    M.SProcs = Scratch(M.SProcs);
    M.RProcs = Scratch(M.RProcs);
    if (M.SenderRest.Before)
      M.SenderRest.Before = Scratch(*M.SenderRest.Before);
    if (M.SenderRest.After)
      M.SenderRest.After = Scratch(*M.SenderRest.After);
    if (M.ReceiverRest.Before)
      M.ReceiverRest.Before = Scratch(*M.ReceiverRest.Before);
    if (M.ReceiverRest.After)
      M.ReceiverRest.After = Scratch(*M.ReceiverRest.After);

    // The set advances from the node it sits at (a recv, or a wait that
    // completes an irecv); the received variable and the reported recv
    // node come from the payload node (the irecv posting for waits).
    const CfgNode &PosNode = Graph.node(St.Sets[RecvIdx].Node);
    const CfgNode &Payload =
        PosNode.isWaitOp() ? Graph.node(WaitPlans.at(PosNode.Id).Posting)
                           : PosNode;
    CfgNodeId RecvId = PosNode.Id;
    std::string RecvVar = Payload.Var;

    logMatch({SendNode, Payload.Id, displayRange(St, MIn.SProcs),
              displayRange(St, MIn.RProcs)});

    // Receiver side: matched piece advances, the rest stays blocked.
    std::vector<SplitPiece> Pieces;
    Pieces.push_back({M.RProcs, Graph.soleSuccessor(RecvId)});
    if (!M.ReceiverFull) {
      if (M.ReceiverRest.Before)
        Pieces.push_back({*M.ReceiverRest.Before, RecvId});
      if (M.ReceiverRest.After)
        Pieces.push_back({*M.ReceiverRest.After, RecvId});
    }
    std::vector<size_t> NewIdx = replaceSet(St, RecvIdx, Pieces);

    // Value propagation into the matched receivers.
    ProcSetEntry &Matched = St.Sets[NewIdx[0]];
    std::string Target = scoped(Matched, RecvVar);
    if (Value) {
      St.Cg.assign(Target, *Value);
      Matched.NonUniform.erase(RecvVar);
    } else {
      St.Cg.havoc(Target);
      if (!Matched.Range.provablySingleton(St.Cg))
        Matched.NonUniform.insert(RecvVar);
      else
        Matched.NonUniform.erase(RecvVar);
    }

    // Sender side.
    if (SenderSetIdx) {
      size_t SIdx = *SenderSetIdx;
      // Indices moved: the receiver set was erased/reinserted at the end;
      // recompute the sender index by name would be cleaner, but the
      // receiver replacement only erased RecvIdx and appended new sets.
      if (SIdx > RecvIdx)
        --SIdx;
      CfgNodeId SendNodeId = St.Sets[SIdx].Node;
      std::vector<SplitPiece> SPieces;
      SPieces.push_back({M.SProcs, Graph.soleSuccessor(SendNodeId)});
      if (!M.SenderFull) {
        if (M.SenderRest.Before)
          SPieces.push_back({*M.SenderRest.Before, SendNodeId});
        if (M.SenderRest.After)
          SPieces.push_back({*M.SenderRest.After, SendNodeId});
      }
      replaceSet(St, SIdx, SPieces);
    } else if (PendingIdx) {
      size_t PIdx = *PendingIdx;
      PendingSend Old = St.InFlight[PIdx];
      St.InFlight.erase(St.InFlight.begin() + static_cast<long>(PIdx));
      // Leftover pieces keep their FIFO position under a fresh freeze
      // namespace, the frozen payload copied so the old namespace can be
      // collected independently. An aggregate's leftovers (riding in
      // SenderRest) are the receivers it has not reached yet; a plain
      // send's are senders, whose bounds may reference mutable variables
      // (e.g. a loop counter) and must be pinned.
      auto Reinsert = [&](const ProcRange &Rest) {
        PendingSend Piece = Old;
        Piece.Seq = St.NextSeq++;
        Piece.FreezeNs = "q" + std::to_string(Piece.Seq);
        St.Cg.copyNamespace(Old.FreezeNs, Piece.FreezeNs,
                            /*SkipAnchors=*/false);
        NamespaceMap ToPiece(Old.FreezeNs, Piece.FreezeNs);
        NamespaceRenamer Retarget(ToPiece, *St.Cg.symbolsPtr());
        for (std::optional<LinearExpr> *L :
             {&Piece.DestUniform, &Piece.Tag, &Piece.Value})
          if (*L)
            **L = (*L)->withRenamedVar(Retarget);
        if (Old.IsAggregate) {
          Piece.Senders =
              Old.Senders.withRenamedVars(Retarget, St.Cg.symbols());
          Piece.AggRange =
              ProcRange(anchorBound(St, Piece.FreezeNs, "alo", Rest.lb()),
                        anchorBound(St, Piece.FreezeNs, "ahi", Rest.ub()));
        } else {
          Piece.Senders =
              ProcRange(anchorBound(St, Piece.FreezeNs, "lo", Rest.lb()),
                        anchorBound(St, Piece.FreezeNs, "hi", Rest.ub()));
        }
        St.InFlight.insert(St.InFlight.begin() + static_cast<long>(PIdx),
                           Piece);
      };
      if (Old.IsAggregate || !M.SenderFull) {
        if (M.SenderRest.After)
          Reinsert(*M.SenderRest.After);
        if (M.SenderRest.Before)
          Reinsert(*M.SenderRest.Before);
      }
    }

    // Collect the scratch anchors; relations they mediated are preserved
    // by the closure.
    St.Cg.removeVarsIf([](std::string_view Ns, std::string_view) {
      return Ns.substr(0, 3) == "mt$";
    });

    submit(std::move(St));
  }

  /// Handles a wildcard (`any`-source) receive-like set \p R, whose
  /// communication payload is \p Payload (the recv node itself, or the
  /// irecv posting completed by a wait the set is blocked at). Counts the
  /// statically eligible senders: with two or more, the match depends on
  /// message timing — a MatchNondet bug is reported (when enabled) and the
  /// analysis degrades to Top, since exact matching is impossible. With
  /// exactly one *provable* source the wildcard is deterministic and the
  /// match is applied. Returns true when the step was fully handled
  /// (match applied or degraded); false when the receiver stays blocked.
  bool tryWildcardMatch(const PcfgState &St, size_t R,
                        const CfgNode &Payload) {
    const ProcSetEntry &Set = St.Sets[R];
    if (!Set.Range.provablySingleton(St.Cg)) {
      fail(BudgetKind::None,
           "wildcard receive at " + Graph.nodeLabel(Payload.Id) +
               " executed by a process set not provably singleton",
           St.configKey());
      return true;
    }
    std::optional<LinearExpr> WantTag = classifyTag(St, Set, Payload.Tag);
    if (!WantTag) {
      fail(BudgetKind::None,
           "cannot evaluate the tag of the wildcard receive at " +
               Graph.nodeLabel(Payload.Id),
           St.configKey());
      return true;
    }

    // Tri-state tag comparison: 1 provably equal, -1 provably different,
    // 0 unknown (mirrors the pending-tag test in aggregate matching).
    auto TagEq = [&](const std::optional<LinearExpr> &T) -> int {
      if (!T)
        return 0;
      if (St.Cg.provesEQ(*T, *WantTag))
        return 1;
      if (St.Cg.provesLE(T->plus(1), *WantTag) ||
          St.Cg.provesLE(WantTag->plus(1), *T))
        return -1;
      return 0;
    };

    struct Candidate {
      /// Provably the single deliverable message: singleton sender whose
      /// destination image provably equals the receiver, tag equal.
      bool Exact = false;
      /// Every rank of the sender range targets one fixed destination —
      /// a multi-rank candidate then contributes several eligible senders
      /// all by itself.
      bool UniformDest = false;
      ProcRange Senders;
      std::string Desc;
      std::optional<size_t> Pending;
      std::optional<size_t> SenderSet;
      std::optional<LinearExpr> Value;
      CfgNodeId SendNode = 0;
    };
    std::vector<Candidate> Cands;

    // In-flight messages, FIFO order.
    for (size_t P = 0; P < St.InFlight.size(); ++P) {
      const PendingSend &Pend = St.InFlight[P];
      auto Image = pendingImage(Pend);
      if (Image && provablyDisjoint(*Image, Set.Range, St.Cg))
        continue;
      int TE = TagEq(Pend.Tag);
      if (TE < 0)
        continue;
      Candidate C;
      C.Pending = P;
      C.SendNode = Pend.SendNode;
      C.Value = Pend.Value;
      C.Senders = Pend.Senders;
      C.UniformDest = !Pend.IsAggregate && Pend.DestUniform.has_value();
      C.Desc = displayRange(St, Pend.Senders);
      C.Exact = TE > 0 && !Pend.IsAggregate && Image &&
                Pend.Senders.provablySingleton(St.Cg) &&
                provablyEqual(*Image, Set.Range, St.Cg);
      Cands.push_back(std::move(C));
    }

    // Process sets blocked at send nodes (blocking semantics).
    if (Opts.Sends == SendSemantics::Blocking) {
      for (size_t S = 0; S < St.Sets.size(); ++S) {
        if (S == R || Graph.node(St.Sets[S].Node).Kind != CfgNodeKind::Send)
          continue;
        CommDesc SendD = descOfSet(St, St.Sets[S]);
        std::optional<ProcRange> Image;
        if (SendD.Partner.isUniform())
          Image = ProcRange(SymBound(SendD.Partner.Value),
                            SymBound(SendD.Partner.Value));
        else if (SendD.Partner.isIdPlusC())
          Image = SendD.Range.shifted(SendD.Partner.Offset);
        if (Image && provablyDisjoint(*Image, Set.Range, St.Cg))
          continue;
        int TE = TagEq(SendD.Tag);
        if (TE < 0)
          continue;
        Candidate C;
        C.SenderSet = S;
        C.SendNode = SendD.Node;
        C.Senders = St.Sets[S].Range;
        C.UniformDest = SendD.Partner.isUniform();
        C.Desc = displayRange(St, St.Sets[S].Range);
        C.Exact = TE > 0 && Image &&
                  St.Sets[S].Range.provablySingleton(St.Cg) &&
                  provablyEqual(*Image, Set.Range, St.Cg);
        const CfgNode &SendNode = Graph.node(St.Sets[S].Node);
        PartnerExpr V = classify(St, St.Sets[S], SendNode.Value);
        if (V.isUniform())
          C.Value = V.Value;
        Cands.push_back(std::move(C));
      }
    }

    if (Cands.empty())
      return false; // Nothing eligible yet; stays blocked.

    if (Cands.size() == 1 && Cands[0].Exact) {
      const Candidate &C = Cands[0];
      MatchResult M;
      M.SProcs = C.Pending ? St.InFlight[*C.Pending].Senders
                           : St.Sets[*C.SenderSet].Range;
      M.RProcs = Set.Range;
      M.SenderFull = true;
      M.ReceiverFull = true;
      if (C.Pending && !fifoSafe(St, *C.Pending, M))
        return false;
      applyMatch(St, C.SenderSet, C.Pending, R, M, C.Value, C.SendNode);
      return true;
    }

    // Several candidates, or one that is not provably the unique source.
    // Distinct candidates each contribute at least one eligible sender; a
    // single multi-rank candidate whose every rank targets one fixed
    // destination provably contributes two or more on its own.
    bool AtLeastTwo = Cands.size() >= 2;
    if (!AtLeastTwo && Cands[0].UniformDest)
      AtLeastTwo = St.Cg.provesLE(Cands[0].Senders.lb().primary().plus(1),
                                  Cands[0].Senders.ub().primary());
    if (Opts.CheckMatchNondet && AtLeastTwo) {
      std::string Detail = "wildcard receive at " +
                           Graph.nodeLabel(Payload.Id) +
                           " can match messages from senders ";
      for (size_t I = 0; I < Cands.size(); ++I)
        Detail += (I ? ", " : "") + Cands[I].Desc;
      Detail += "; which message arrives first depends on timing";
      StepEffects::Item It;
      It.K = StepEffects::Item::Kind::Leak;
      It.Leak = {AnalysisBug::Kind::MatchNondet, Payload.Id, SourceLoc(),
                 std::move(Detail)};
      Fx.Items.push_back(std::move(It));
    }
    fail(BudgetKind::None,
         "wildcard receive at " + Graph.nodeLabel(Payload.Id) +
             " cannot be matched deterministically (no provably unique "
             "sender)",
         St.configKey());
    return true;
  }

  /// Figure 4's matchSendsRecvs: scans sender/receiver candidates and
  /// applies the first provable match. Returns true when one was applied.
  /// Receive candidates are recv nodes and wait/waitall nodes statically
  /// resolved to complete exactly one irecv (wait-as-recv).
  bool tryMatching(const PcfgState &St) {
    // Receiver candidates.
    for (size_t R = 0; R < St.Sets.size(); ++R) {
      const CfgNode &SetNode = Graph.node(St.Sets[R].Node);
      const CfgNode *Payload = &SetNode;
      if (SetNode.isWaitOp()) {
        auto It = WaitPlans.find(SetNode.Id);
        if (It == WaitPlans.end() ||
            It->second.Result != WaitResolution::Kind::AsRecv)
          continue;
        Payload = &Graph.node(It->second.Posting);
      } else if (SetNode.Kind != CfgNodeKind::Recv) {
        continue;
      }
      if (!Payload->Partner) {
        if (tryWildcardMatch(St, R, *Payload))
          return true;
        continue;
      }
      CommDesc RecvD = descOfSet(St, St.Sets[R], Payload);

      // Buffered: in-flight sends in FIFO order.
      for (size_t P = 0; P < St.InFlight.size(); ++P) {
        bool TagConflict = false;
        std::optional<MatchResult> M;
        if (St.InFlight[P].IsAggregate) {
          M = aggregateMatch(St, St.InFlight[P], RecvD, TagConflict);
        } else {
          CommDesc SendD = descOfPending(St.InFlight[P]);
          M = tryMatch(Opts, SendD, RecvD, St.Cg, St.Facts, HsmMemo,
                       TagConflict);
        }
        if (TagConflict)
          logTagConflict(St.InFlight[P].SendNode, RecvD.Node);
        if (!M || !fifoSafe(St, P, *M))
          continue;
        applyMatch(St, std::nullopt, P, R, *M, St.InFlight[P].Value,
                   St.InFlight[P].SendNode);
        return true;
      }

      // Blocking: process sets waiting at send nodes.
      if (Opts.Sends == SendSemantics::Blocking) {
        for (size_t S = 0; S < St.Sets.size(); ++S) {
          if (S == R || Graph.node(St.Sets[S].Node).Kind != CfgNodeKind::Send)
            continue;
          CommDesc SendD = descOfSet(St, St.Sets[S]);
          bool TagConflict = false;
          auto M = tryMatch(Opts, SendD, RecvD, St.Cg, St.Facts, HsmMemo,
                            TagConflict);
          if (TagConflict)
            logTagConflict(SendD.Node, RecvD.Node);
          if (!M)
            continue;
          // Value at match time: classified on the sender set now.
          const CfgNode &SendNode = Graph.node(St.Sets[S].Node);
          std::optional<LinearExpr> Value;
          PartnerExpr V = classify(St, St.Sets[S], SendNode.Value);
          if (V.isUniform())
            Value = V.Value;
          else if (auto Off = matchIdPlusC(SendNode.Value);
                   Off && St.Sets[S].Range.provablySingleton(St.Cg))
            Value = St.Sets[S].Range.lb().primary().plus(*Off);
          applyMatch(St, S, std::nullopt, R, *M, Value, SendNode.Id);
          return true;
        }
      }
    }
    return false;
  }

  /// Records, for a terminal state, which program variables provably hold
  /// one constant on every process — the raw material of the paper's
  /// constant-sharing client.
  void recordFinalSnapshot(const PcfgState &St) {
    std::map<std::string, std::optional<std::int64_t>> Snapshot;
    for (const std::string &Var : AssignedVars) {
      std::optional<std::int64_t> Agreed;
      bool Diverged = false;
      for (const ProcSetEntry &Set : St.Sets) {
        auto C = St.Cg.constValue(scoped(Set, Var));
        if (!C || Set.NonUniform.count(Var) ||
            (Agreed && *Agreed != *C)) {
          Diverged = true;
          break;
        }
        Agreed = C;
      }
      Snapshot[Var] =
          (!Diverged && Agreed) ? Agreed : std::optional<std::int64_t>();
    }
    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::Snapshot;
    It.Snapshot = std::move(Snapshot);
    Fx.Items.push_back(std::move(It));
  }

  //===--------------------------------------------------------------------===
  // The main step function
  //===--------------------------------------------------------------------===

  /// Advances every set of \p St through straight-line nodes until all
  /// sets sit at a blocking point (comm op, exit) or a branch. Macro-
  /// stepping to quiescence is justified by interleaving-obliviousness
  /// and keeps states at shared configurations canonical, so joins do not
  /// mix partially advanced interleavings. Returns true if anything moved.
  bool advanceToQuiescence(PcfgState &St) {
    bool Moved = false;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (size_t I = 0; I < St.Sets.size(); ++I) {
        const CfgNode &Node = Graph.node(St.Sets[I].Node);
        switch (Node.Kind) {
        case CfgNodeKind::Entry:
        case CfgNodeKind::Skip:
        case CfgNodeKind::Assert: // A proof obligation, not a fact.
          St.Sets[I].Node = Graph.soleSuccessor(Node.Id);
          break;
        case CfgNodeKind::Assign:
          transferAssign(St, I, Node.Var, Node.Value);
          St.Sets[I].Node = Graph.soleSuccessor(Node.Id);
          break;
        case CfgNodeKind::Print:
          transferPrint(St, I, Node.Id, Node.Value);
          St.Sets[I].Node = Graph.soleSuccessor(Node.Id);
          break;
        case CfgNodeKind::Assume:
          transferAssume(St, I, Node.Cond);
          St.Sets[I].Node = Graph.soleSuccessor(Node.Id);
          break;
        case CfgNodeKind::Send:
          if (Opts.Sends == SendSemantics::Buffered) {
            if (!emitSend(St, I))
              return Moved; // Resource failure already reported.
            break;
          }
          continue; // Blocking send: blocked.
        case CfgNodeKind::Isend:
          // Isend is non-blocking by definition: it deposits an in-flight
          // message and advances even under blocking-send semantics. The
          // node payload is identical to Send, so emitSend applies as-is.
          if (!emitSend(St, I))
            return Moved;
          break;
        case CfgNodeKind::Irecv:
          // Posting is a no-op for the abstraction: the receive happens at
          // the matching wait (WaitPlans resolved it statically).
          St.Sets[I].Node = Graph.soleSuccessor(Node.Id);
          break;
        case CfgNodeKind::Wait:
        case CfgNodeKind::Waitall: {
          const WaitResolution &Plan = WaitPlans.at(Node.Id);
          if (Plan.Result == WaitResolution::Kind::NoOp) {
            // All completed requests were isends: already in flight.
            St.Sets[I].Node = Graph.soleSuccessor(Node.Id);
            break;
          }
          if (Plan.Result == WaitResolution::Kind::Imprecise) {
            fail(BudgetKind::None,
                 "cannot model " + Graph.nodeLabel(Node.Id) + ": " +
                     Plan.Why,
                 St.configKey());
            return Moved;
          }
          continue; // AsRecv: blocks until matched like a receive.
        }
        case CfgNodeKind::Branch: // Handled by the caller (forks).
        case CfgNodeKind::Recv:
        case CfgNodeKind::Exit:
          continue;
        }
        Progress = true;
        Moved = true;
      }
    }
    return Moved;
  }

public:
  /// Processes one state: advances all unblocked sets to quiescence,
  /// forks at branches, then matches, or reports stuckness. \p TraceId is
  /// the 1-based sequential position of this step (trace output only).
  void step(const PcfgState &Cur, unsigned TraceId) {
    if (tracingEnabled())
      std::fprintf(stderr, "--- step %u ---\n%s", TraceId,
                   Cur.str(Graph).c_str());
    Fx.SetsSeen = static_cast<unsigned>(Cur.Sets.size());

    // Matching runs before further advancement: with buffered sends a
    // loop would otherwise emit past the in-flight bound before any
    // receiver gets to consume, and an applicable match is always sound
    // to take (matchSendsRecvs proves it exactly).
    if (tryMatching(Cur))
      return;

    PcfgState St = Cur;
    bool Moved = advanceToQuiescence(St);
    if (LocalTop)
      return;

    // Fork the first set waiting at a branch (successor states macro-step
    // further when re-stepped). With the Section X extension, a singleton
    // sender at a recognized send-loop header is summarized wholesale
    // instead of unrolled.
    for (size_t I = 0; I < St.Sets.size(); ++I) {
      if (!Graph.node(St.Sets[I].Node).isBranch())
        continue;
      if (Opts.AggregateSendLoops && Opts.Sends == SendSemantics::Buffered) {
        if (auto Loop = matchSendLoop(St.Sets[I].Node, *St.Cg.symbolsPtr())) {
          PcfgState Agg = St;
          if (emitAggregateSendLoop(Agg, I, *Loop)) {
            submit(std::move(Agg));
            return;
          }
        }
        if (auto Loop = matchRecvLoop(St.Sets[I].Node, *St.Cg.symbolsPtr())) {
          PcfgState Agg = St;
          if (consumeRecvLoop(Agg, I, *Loop)) {
            submit(std::move(Agg));
            return;
          }
        }
      }
      transferBranch(std::move(St), I);
      return;
    }

    if (Moved) {
      // Reached a new quiescent configuration; store it, then match on
      // the (possibly joined) stored representative.
      submit(std::move(St));
      return;
    }

    // All at exit was handled at submit time; reaching here with blocked
    // sets means this state cannot make progress *now*. The verdict is
    // deferred: a later join at this configuration (more loop context,
    // widening) may unblock it, in which case the variant is re-stepped
    // and the stuck mark cleared. Only states still stuck when the
    // worklist drains count as Top (Figure 4's "gives up" rule).
    Fx.StuckBugs.clear();
    for (const ProcSetEntry &Set : Cur.Sets) {
      const CfgNode &Node = Graph.node(Set.Node);
      if (Node.isCommOp() || Node.isWaitOp())
        Fx.StuckBugs.push_back(
            {AnalysisBug::Kind::PossibleDeadlock, Node.Id, SourceLoc(),
             Set.Range.str(St.Cg.symbols()) + " blocked forever at " +
                 Graph.nodeLabel(Node.Id)});
    }
    if (!Fx.StuckBugs.empty() && tracingEnabled())
      std::fprintf(stderr, "stuck (deferred verdict)\n");
  }

  //===--------------------------------------------------------------------===

private:
  const Cfg &Graph;
  const AnalysisOptions &Opts;
  const std::set<std::string> &AssignedVars;
  const std::map<CfgNodeId, WaitResolution> &WaitPlans;
  HsmMatchMemo &HsmMemo;
  /// The ordered effect log this step is accumulating.
  StepEffects Fx;
  /// Local mirror of the engine's topped-out flag for intra-step control
  /// flow (the committer's first-failure-wins rule is authoritative).
  bool LocalTop = false;
  /// Per-step fresh-name counter: canonicalize() renames every transient
  /// namespace before a state is stored, so the numbers never escape.
  unsigned FreshSets = 0;
};

/// Runs \p Body on a fresh Stepper, capturing any exception into the log
/// so the mutations that preceded it still commit in order.
template <typename Fn> StepEffects runStepper(const StepInputs &In, Fn Body) {
  Stepper S(In);
  StepEffects Fx;
  try {
    Body(S);
    Fx = S.takeEffects();
  } catch (...) {
    Fx = S.takeEffects();
    Fx.Error = std::current_exception();
  }
  return Fx;
}

} // namespace

StepEffects csdf::computeStep(const StepInputs &In, const PcfgState &Cur,
                              unsigned TraceId) {
  return runStepper(In, [&](Stepper &S) { S.step(Cur, TraceId); });
}

StepEffects csdf::seedStep(const StepInputs &In, PcfgState Init) {
  return runStepper(In, [&](Stepper &S) { S.seed(std::move(Init)); });
}
