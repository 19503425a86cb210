//===- pcfg/Engine.cpp ---------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/Engine.h"

#include "cfg/LoopInfo.h"
#include "cfg/RequestInfo.h"
#include "lang/ExprOps.h"
#include "pcfg/Matcher.h"
#include "pcfg/PartnerExpr.h"
#include "pcfg/Replay.h"
#include "support/Budget.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace csdf;

/// Set the CSDF_TRACE_PCFG environment variable to get a step-by-step
/// dump of the exploration on stderr.
static bool tracingEnabled() {
  static bool Enabled = std::getenv("CSDF_TRACE_PCFG") != nullptr;
  return Enabled;
}

const char *csdf::analysisBugKindName(AnalysisBug::Kind Kind) {
  switch (Kind) {
  case AnalysisBug::Kind::MessageLeak:
    return "message-leak";
  case AnalysisBug::Kind::PossibleDeadlock:
    return "possible-deadlock";
  case AnalysisBug::Kind::TagMismatch:
    return "tag-mismatch";
  case AnalysisBug::Kind::MatchNondet:
    return "match-nondet";
  }
  csdf_unreachable("unhandled AnalysisBug::Kind");
}

const char *csdf::analysisVerdictName(AnalysisVerdict Verdict) {
  switch (Verdict) {
  case AnalysisVerdict::Complete:
    return "complete";
  case AnalysisVerdict::DegradedToTop:
    return "degraded-to-top";
  case AnalysisVerdict::InternalError:
    return "internal-error";
  }
  csdf_unreachable("unhandled AnalysisVerdict");
}

std::string AnalysisOutcome::str() const {
  std::string S = analysisVerdictName(Verdict);
  if (Verdict == AnalysisVerdict::DegradedToTop && Budget != BudgetKind::None)
    S += std::string("(") + budgetKindName(Budget) + ")";
  return S;
}

namespace csdf {

/// The buffered outcome of speculatively stepping one state.
///
/// The engine's parallel drain lets worker threads *compute* steps ahead
/// of time, but only a single coordinator *commits* their outcomes, in
/// the exact order the sequential drain would have produced them. A
/// Stepper therefore never touches the engine's result, configuration
/// table, or worklist: every mutation it would have performed is logged
/// here as an ordered item and replayed verbatim at commit time. The log
/// preserves the sequential interleaving of result mutations exactly —
/// including mutations that preceded an exception (Error carries it; the
/// committer applies the partial log, then rethrows).
struct StepEffects {
  struct Item {
    enum class Kind { Match, Print, TagConflict, Leak, Snapshot, Fail, Submit };
    Kind K = Kind::Match;
    MatchRecord Match{};
    PrintFact Print{};
    CfgNodeId ConflictSend = 0, ConflictRecv = 0;
    AnalysisBug Leak{};
    std::map<std::string, std::optional<std::int64_t>> Snapshot;
    BudgetKind FailKind = BudgetKind::None;
    std::string FailReason, FailConfig;
    /// Submit only. Optional so the other kinds build no throwaway state
    /// (and captured traces keep none alive).
    std::optional<PcfgState> Sub;
    std::string SubKey;
    bool SubAtLoopHeader = false;
  };
  std::vector<Item> Items;
  /// Why the stepped state was stuck (empty when it progressed).
  std::vector<AnalysisBug> StuckBugs;
  /// Cur.Sets.size() of the stepped state, for the MaxSetsSeen high-water.
  unsigned SetsSeen = 0;
  /// Exception the step died with, if any (rethrown after commit).
  std::exception_ptr Error;
};

/// The committer's decision for one submitted state, recorded alongside
/// the effect log so a replay can reproduce the configuration table's
/// evolution without re-running joins, widenings, or equality tests.
struct CommitOutcome {
  enum class Kind {
    /// The state was unjoinable with every stored variant: appended.
    NewVariant,
    /// Folded into variant `Variant` without changing it.
    Fixpoint,
    /// Folded into variant `Variant`, producing `NewState`.
    Updated,
  };
  Kind K = Kind::NewVariant;
  std::uint32_t Variant = 0;
  /// Updated only: the stored variant's post-join state, captured after
  /// closure (exactly what the table held after this commit).
  std::optional<PcfgState> NewState;
};

/// One worklist position of a recorded exploration: the step's effect log
/// plus the committer's decision for each Submit item, in order.
struct TraceStep {
  StepEffects Fx;
  std::vector<CommitOutcome> Outcomes;
};

/// A converged exploration, step by step. Steps[i] corresponds to
/// worklist position i (the initial seeding commit is not recorded: it is
/// determined by the options alone and runs identically in both modes).
/// States inside the trace point into the AST of the run that captured
/// it; EngineSeed::PriorKeepAlive must own that AST. Adopted steps are
/// re-captured with remapped pointers, so every trace stands alone.
class AnalysisTrace {
public:
  std::vector<TraceStep> Steps;
};

} // namespace csdf

namespace {

/// One target piece when a process set splits.
struct SplitPiece {
  ProcRange Range;
  CfgNodeId Node = 0;
};

/// One speculative step of the pCFG exploration: all transfer functions,
/// matching, and normalization, reading a private state snapshot and
/// writing a StepEffects log. Steppers are cheap, single-use and
/// thread-confined; shared inputs (Cfg, options, loop info, assigned-var
/// set) are immutable during a drain.
class Stepper {
public:
  Stepper(const Cfg &Graph, const AnalysisOptions &Opts, const LoopInfo &Loops,
          const std::set<std::string> &AssignedVars,
          const std::map<CfgNodeId, WaitResolution> &WaitPlans,
          HsmMatchMemo &HsmMemo)
      : Graph(Graph), Opts(Opts), Loops(Loops), AssignedVars(AssignedVars),
        WaitPlans(WaitPlans), HsmMemo(HsmMemo) {}

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
  static std::string displayRange(const ProcRange &Range) {
    auto Pick = [](const SymBound &Bound) {
      for (const LinearExpr &Form : Bound.forms())
        if (Form.isConstant() || Form.var().find('.') == std::string::npos)
          return Form.str();
      return Bound.primary().str();
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
                           St.Sets[I].Range.str().c_str(),
                           St.Sets[J].Range.str().c_str());
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
    for (VarId Id : St.Cg.varIds()) {
      const std::string &Var = St.Cg.symbols().name(Id);
      if (!inNamespace(Var, A.Name))
        continue;
      std::string Base = Var.substr(A.Name.size() + 1);
      if (isAnchorName(Base))
        continue; // Anchor slots are per-set metadata.
      if (!NonUniform.count(Base) &&
          !St.Cg.provesEQ(LinearExpr(Var, 0),
                          LinearExpr(B.Name + "." + Base, 0)))
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
    Anchored = Anchored.withRenamedVars(
        [&](const std::string &Var) { return FromScratch.apply(Var); });

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
      if (Form.isConstant() || Form.var().find('.') == std::string::npos)
        return SymBound(Form);
    std::string Anchor = OwnerNs + "." + Slot;
    St.Cg.assign(Anchor, Bound.primary());
    return SymBound(LinearExpr(Anchor, 0));
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
      // Copy the old set's variable valuation: at split time all pieces
      // agree with the parent exactly. The parent's `lo$`/`ub$` anchor
      // slots are per-set metadata, not program state — copying them
      // would contradict the piece's own freshly assigned anchors.
      St.Cg.copyNamespace(OldName, E.Name, /*SkipAnchors=*/true);
      NewIndices.push_back(St.Sets.size());
      St.Sets.push_back(std::move(E));
    }
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
                   "message from " + P.Senders.str() + " sent at " +
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

    // Widen only at configurations with a set inside a CFG loop body:
    // repeated visits there are genuine loop iterations needing finite
    // ascent, and loop guards are re-established by branch transfers on
    // the next pass (the standard widening-with-guard pattern).
    // Everywhere else a plain join converges once the loops stabilize.
    // Decided here (not at commit) because LoopInfo is immutable shared
    // input; the join-vs-widen choice itself is the committer's.
    bool AtLoopHeader = false;
    for (const ProcSetEntry &Set : St.Sets)
      if (Loops.isInLoop(Set.Node))
        AtLoopHeader = true;

    // Close the constraint graph now, on the speculating thread: stored
    // states must be closed before another worker may snapshot them (the
    // closed-shared-block invariant), and doing it here keeps the O(n^3)
    // closure cost out of the coordinator's serialized commit path.
    St.Cg.close();

    StepEffects::Item It;
    It.K = StepEffects::Item::Kind::Submit;
    It.SubKey = std::move(Key);
    It.Sub = std::move(St);
    It.SubAtLoopHeader = AtLoopHeader;
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
    Fact.SetRange = Set.Range.str();
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
  std::optional<SendLoop> matchSendLoop(CfgNodeId BranchId) const {
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
    auto Lin = LinearExpr::fromExpr(Step.Value);
    if (!Lin || !Lin->hasVar() || Lin->var() != Loop.Var ||
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
    SymBound Lo((LinearExpr(ScopedVar, 0)));
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
      if (Tag->hasVar() && Tag->var().find('.') != std::string::npos) {
        St.Cg.assign(P.FreezeNs + ".tag", *Tag);
        P.Tag = LinearExpr(P.FreezeNs + ".tag", 0);
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
      if (Value.Value.hasVar() &&
          Value.Value.var().find('.') != std::string::npos) {
        St.Cg.assign(P.FreezeNs + ".val", Value.Value);
        P.Value = LinearExpr(P.FreezeNs + ".val", 0);
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
                   Loop.SendNode, St.InFlight.back().AggRange.str().c_str());
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
  std::optional<RecvLoop> matchRecvLoop(CfgNodeId BranchId) const {
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
    auto Lin = LinearExpr::fromExpr(Step.Value);
    if (!Lin || !Lin->hasVar() || Lin->var() != Loop.Var ||
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
    SymBound Lo((LinearExpr(ScopedVar, 0)));
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
                displayRange(Pending.Senders), displayRange(Set.Range)});
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
                     Loop.RecvNode, Sources.str().c_str());
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
      if (Value.isConstant() ||
          Value.var().find('.') == std::string::npos)
        return Value;
      std::string Frozen = P.FreezeNs + "." + Slot;
      St.Cg.assign(Frozen, Value);
      return LinearExpr(Frozen, 0);
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
      if (Primary.isConstant() ||
          Primary.var().find('.') == std::string::npos)
        return Bound;
      std::string Frozen = P.FreezeNs + "." + Slot;
      St.Cg.assign(Frozen, Primary);
      return SymBound(LinearExpr(Frozen, 0));
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

    logMatch({SendNode, Payload.Id, displayRange(MIn.SProcs),
              displayRange(MIn.RProcs)});

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
        auto Retarget = [&](const std::string &V) { return ToPiece.apply(V); };
        for (std::optional<LinearExpr> *L :
             {&Piece.DestUniform, &Piece.Tag, &Piece.Value})
          if (*L)
            **L = (*L)->withRenamedVar(Retarget);
        if (Old.IsAggregate) {
          Piece.Senders = Old.Senders.withRenamedVars(Retarget);
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
      C.Desc = displayRange(Pend.Senders);
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
        C.Desc = displayRange(St.Sets[S].Range);
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
        if (auto Loop = matchSendLoop(St.Sets[I].Node)) {
          PcfgState Agg = St;
          if (emitAggregateSendLoop(Agg, I, *Loop)) {
            submit(std::move(Agg));
            return;
          }
        }
        if (auto Loop = matchRecvLoop(St.Sets[I].Node)) {
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
             Set.Range.str() + " blocked forever at " +
                 Graph.nodeLabel(Node.Id)});
    }
    if (!Fx.StuckBugs.empty() && tracingEnabled())
      std::fprintf(stderr, "stuck (deferred verdict)\n");
  }

  //===--------------------------------------------------------------------===

private:
  const Cfg &Graph;
  const AnalysisOptions &Opts;
  const LoopInfo &Loops;
  const std::set<std::string> &AssignedVars;
  /// Static wait resolution, one entry per wait/waitall node (computed
  /// once by the Engine; see WaitResolution).
  const std::map<CfgNodeId, WaitResolution> &WaitPlans;
  /// The run's HSM match memo (thread-safe; shared across steppers).
  HsmMatchMemo &HsmMemo;
  /// The ordered effect log this step is accumulating.
  StepEffects Fx;
  /// Local mirror of the engine's topped-out flag for intra-step control
  /// flow (the committer's first-failure-wins rule is authoritative).
  bool LocalTop = false;
  /// Per-step fresh-name counter. Observationally identical to the old
  /// engine-global counter: canonicalize() renames every transient
  /// namespace before a state is stored, so the numbers never escape.
  unsigned FreshSets = 0;
};

/// Canonical structural signature of one CFG node, for the replay
/// validator's per-node diff. Two nodes with equal signatures (at the
/// same id, with equal signatures across their relevant neighborhood —
/// see the Safe[] closure) are indistinguishable to every engine read:
/// the signature covers the kind, names, every payload expression
/// (rendered, with distinct markers for a wildcard partner vs an absent
/// expression), the successor edge sequence, the in-loop flag that
/// drives join-vs-widen decisions, and — for wait nodes — the full
/// static wait resolution including the posting node's payload (the
/// matcher evaluates partner/tag/var on the *posting* when a wait acts
/// as a receive). Source locations are deliberately absent: whitespace
/// and comment edits must not change any signature.
std::string nodeSignature(const Cfg &G, const LoopInfo &Loops,
                          const std::map<CfgNodeId, WaitResolution> &Plans,
                          CfgNodeId Id) {
  const CfgNode &N = G.node(Id);
  std::string S = cfgNodeKindName(N.Kind);
  auto Text = [&](const Expr *E, const char *Absent) {
    S += '|';
    S += E ? exprToString(E) : Absent;
  };
  S += '|';
  S += N.Var;
  S += '|';
  S += N.Req;
  Text(N.Value, "<none>");
  Text(N.Cond, "<none>");
  Text(N.Partner, "<any>"); // A null partner on a comm op is a wildcard.
  Text(N.Tag, "<none>");
  S += "|succs:";
  for (const CfgEdge &E : N.Succs) {
    S += std::to_string(static_cast<int>(E.Kind));
    S += '>';
    S += std::to_string(E.Target);
    S += ',';
  }
  S += Loops.isInLoop(Id) ? "|L1" : "|L0";
  if (N.isWaitOp()) {
    auto It = Plans.find(Id);
    if (It == Plans.end()) {
      S += "|plan:none";
    } else {
      const WaitResolution &Plan = It->second;
      S += "|plan:" + std::to_string(static_cast<int>(Plan.Result));
      S += ";post=" + std::to_string(Plan.Posting);
      S += ";done=";
      for (CfgNodeId C : Plan.Completed)
        S += std::to_string(C) + ",";
      S += ";why=" + Plan.Why;
      if (Plan.Result == WaitResolution::Kind::AsRecv) {
        const CfgNode &Post = G.node(Plan.Posting);
        S += ";payload=" + Post.Var;
        Text(Post.Partner, "<any>");
        Text(Post.Tag, "<none>");
        Text(Post.Value, "<none>");
      }
    }
  }
  return S;
}

/// The analysis coordinator: owns the configuration table, the worklist
/// and the AnalysisResult, and is the only mutator of all three. Steps
/// are computed by Steppers — inline (sequential drain) or speculatively
/// on a thread pool (parallel drain) — and their effect logs are
/// committed in strict worklist order, which makes the result
/// bit-identical at every thread count.
class Engine {
public:
  Engine(const Cfg &Graph, const AnalysisOptions &Opts, StatsRegistry *Stats)
      : Graph(Graph), Opts(Opts), Stats(Stats), Loops(Graph),
        HsmMemo(Stats) {
    for (const CfgNode &N : Graph.nodes())
      if (N.Kind == CfgNodeKind::Assign || N.Kind == CfgNodeKind::Recv ||
          N.Kind == CfgNodeKind::Irecv)
        AssignedVars.insert(N.Var);
    // Resolve every wait/waitall statically once: which posting it
    // completes and whether it behaves as a no-op, a receive, or is
    // beyond the abstraction (degrades to Top when reached).
    RequestInfo Requests = RequestInfo::compute(Graph);
    for (const CfgNode &N : Graph.nodes())
      if (N.isWaitOp())
        WaitPlans.emplace(N.Id, Requests.resolveWait(N.Id));
    setupReplay();
  }

  AnalysisResult run();

private:
  struct Stored {
    PcfgState State;
    unsigned Visits = 0;
    /// Bugs describing why the last step of this variant was stuck;
    /// empty when the variant progressed. Cleared on every update.
    std::vector<AnalysisBug> Stuck;
    /// Worklist dedup: set while a (config, variant) entry is pending, so
    /// repeated submissions re-step it once instead of once per update.
    bool InWorklist = false;
    /// Bumped on every committed update of State. A speculative step
    /// whose snapshot carries an older stamp is stale and is dropped.
    std::uint64_t Stamp = 0;
  };

  /// One pCFG configuration: its key and its unjoinable state variants.
  /// Configs grow in commit order; ids are stable (never erased).
  struct ConfigEntry {
    std::string Key;
    std::vector<Stored> Variants;
  };

  /// Worklist entries name configurations by dense id, not string key:
  /// the hot pop path does two vector indexings instead of a map lookup
  /// over long key strings.
  struct WorkItem {
    std::uint32_t Config = 0;
    std::uint32_t Variant = 0;
  };

  /// Degrades the result to Top; first failure wins.
  void fail(BudgetKind Kind, const std::string &Reason,
            std::string Config = "") {
    if (tracingEnabled())
      std::fprintf(stderr, "TOP: %s\n", Reason.c_str());
    if (!ToppedOut) {
      ToppedOut = true;
      Result.TopReason = Reason;
      Result.Outcome.Verdict = AnalysisVerdict::DegradedToTop;
      Result.Outcome.Budget = Kind;
      Result.Outcome.Reason = Reason;
      Result.Outcome.Configuration = std::move(Config);
    }
  }
  void fail(const std::string &Reason) { fail(BudgetKind::None, Reason); }

  void noteTagConflict(CfgNodeId SendNode, CfgNodeId RecvNode) {
    std::string Detail = "send at " + Graph.nodeLabel(SendNode) +
                         " and recv at " + Graph.nodeLabel(RecvNode) +
                         " use provably different tags";
    for (const AnalysisBug &B : Result.Bugs)
      if (B.TheKind == AnalysisBug::Kind::TagMismatch && B.Detail == Detail)
        return;
    Result.Bugs.push_back(
        {AnalysisBug::Kind::TagMismatch, SendNode, SourceLoc(), Detail});
  }

  /// Enqueues a variant unless it is already pending.
  void push(std::uint32_t Cid, std::size_t V) {
    Stored &E = Configs[Cid].Variants[V];
    if (E.InWorklist)
      return;
    E.InWorklist = true;
    Worklist.push_back({Cid, static_cast<std::uint32_t>(V)});
  }

  void commitSubmission(PcfgState St, const std::string &Key,
                        bool AtLoopHeader);
  void commitEffects(StepEffects &Fx);
  StepEffects computeStep(const PcfgState &Cur, unsigned TraceId) const;
  void drainSequential();
  void drainParallel();
  void explore();
  void finish();

  //===--------------------------------------------------------------------===
  // Trace capture and replay (the incremental pipeline's engine half)
  //===--------------------------------------------------------------------===

  void setupReplay();
  bool stoppingNode(const CfgNode &N) const;
  bool stateAdoptable(const PcfgState &St, bool NeedSafe) const;
  bool adoptable(const TraceStep &Rec, const PcfgState &Popped) const;
  void remapTraceStates(TraceStep &T) const;
  void adoptStep(const TraceStep &Rec, WorkItem W);
  void applyRecordedSubmission(PcfgState St, const std::string &Key,
                               CommitOutcome &Out);

  const Cfg &Graph;
  AnalysisOptions Opts;
  StatsRegistry *Stats;
  LoopInfo Loops;
  /// The run's HSM match memo, shared by every Stepper (pool workers
  /// included; it locks internally). A cache: it changes no result, so
  /// const steps may use it. Freed with the engine, so nothing it holds
  /// outlives the run.
  mutable HsmMatchMemo HsmMemo;
  std::set<std::string> AssignedVars;
  /// Static wait resolution, one entry per wait/waitall node.
  std::map<CfgNodeId, WaitResolution> WaitPlans;
  /// Interned configuration keys -> dense ids into Configs.
  std::unordered_map<std::string, std::uint32_t> ConfigIds;
  std::vector<ConfigEntry> Configs;
  /// Append-only worklist; Head is the next position to commit. The
  /// prefix behind Head doubles as the exploration history numbering the
  /// steps (TraceId = position + 1).
  std::vector<WorkItem> Worklist;
  std::size_t Head = 0;
  AnalysisResult Result;
  bool ToppedOut = false;
  /// Configuration key of the state currently being committed, for budget
  /// failure attribution and crash reports.
  std::string CurrentConfig;

  /// Trace being captured this run (null when not capturing). Deposited
  /// into Opts.Capture only when the run converges.
  std::shared_ptr<AnalysisTrace> Captured;
  /// The step currently being recorded; commitSubmission appends its
  /// outcome decisions here. Null outside a recorded commit (in
  /// particular during the initial seeding commit, which is not traced).
  TraceStep *Recording = nullptr;
  /// Validated seed trace to replay from (null = cold run).
  const AnalysisTrace *SeedTrace = nullptr;
  /// True while recorded steps are still being adopted. Cleared forever
  /// at the first non-adoptable step: from there the configuration table
  /// may evolve differently from the recording run.
  bool ReplayOn = false;
  /// Node ids valid in both graphs: min(prior size, current size).
  CfgNodeId Ncommon = 0;
  /// Clean[n]: node n has an identical structural signature in the prior
  /// and current graphs (every direct read of n behaves identically).
  std::vector<char> Clean;
  /// Safe[n]: Clean[n] and the whole advance-to-quiescence walk starting
  /// at n stays on clean nodes up to and including its stopping node
  /// (greatest fixpoint; see setupReplay).
  std::vector<char> Safe;
  /// Step counters for ReplayStats.
  unsigned StepsTotal = 0, StepsAdopted = 0, StepsLive = 0;
};

/// Validates the seed (if any) and prepares capture. Runs once, from the
/// constructor, after AssignedVars/WaitPlans are computed. Replay and
/// capture force the sequential drain: results are bit-identical at any
/// thread count, so pinning Threads=1 is semantics-neutral, and it keeps
/// the trace's step<->position correspondence trivial.
void Engine::setupReplay() {
  // Limit-bounded runs neither replay nor capture: a deadline makes the
  // exploration prefix nondeterministic, which is exactly what a trace
  // must not be. (An unlimited budget is pure accounting and is fine.)
  if (Opts.Budget && Opts.Budget->limited())
    Opts.Capture.reset();
  if (Opts.Capture)
    Captured = std::make_shared<AnalysisTrace>();
  if (Opts.Seed || Captured)
    Opts.Threads = 1;
  if (!Opts.Seed)
    return;

  auto Reject = [&](std::string Why) {
    if (Opts.Replay)
      Opts.Replay->SeedRejectReason = std::move(Why);
  };
  const EngineSeed &Seed = *Opts.Seed;
  if (!Seed.Trace || !Seed.PriorGraph)
    return Reject("seed missing trace or prior graph");
  if (Opts.Budget && Opts.Budget->limited())
    return Reject("budget-limited run; replaying is disabled");
  if (!Opts.SharedSymbols || Opts.SharedSymbols != Seed.Symbols)
    return Reject("symbol table differs from the seed's");
  if (Seed.OptionsFingerprint != Opts.fingerprint())
    return Reject("analysis options differ from the recording run's");

  // The transfer functions scope variables through the *global* assigned-
  // variable set (PcfgState::scopedVar); recorded states are only
  // meaningful when that set is unchanged.
  const Cfg &Old = *Seed.PriorGraph;
  std::set<std::string> OldAssigned;
  for (const CfgNode &N : Old.nodes())
    if (N.Kind == CfgNodeKind::Assign || N.Kind == CfgNodeKind::Recv ||
        N.Kind == CfgNodeKind::Irecv)
      OldAssigned.insert(N.Var);
  if (OldAssigned != AssignedVars)
    return Reject("assigned-variable set changed");

  // Per-node structural diff over the common id range.
  LoopInfo OldLoops(Old);
  RequestInfo OldRequests = RequestInfo::compute(Old);
  std::map<CfgNodeId, WaitResolution> OldPlans;
  for (const CfgNode &N : Old.nodes())
    if (N.isWaitOp())
      OldPlans.emplace(N.Id, OldRequests.resolveWait(N.Id));
  Ncommon = static_cast<CfgNodeId>(std::min(Old.size(), Graph.size()));
  Clean.assign(Ncommon, 0);
  for (CfgNodeId N = 0; N < Ncommon; ++N)
    Clean[N] = nodeSignature(Old, OldLoops, OldPlans, N) ==
               nodeSignature(Graph, Loops, WaitPlans, N);

  // Safe[] greatest fixpoint: a stepped set at node n macro-advances
  // through every non-stopping node to its stopping point; the whole walk
  // must be clean for the recorded step to be byte-equal to a cold one.
  // Branches additionally expose their loop shape to the Section X
  // aggregate recognizers, which peek at the true-successor body.
  Safe = Clean;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (CfgNodeId N = 0; N < Ncommon; ++N) {
      if (!Safe[N])
        continue;
      const CfgNode &Node = Graph.node(N);
      bool Ok = true;
      if (Node.isBranch()) {
        if (Opts.AggregateSendLoops &&
            Opts.Sends == SendSemantics::Buffered) {
          CfgNodeId T = Graph.branchSuccessor(N, true);
          Ok = T < Ncommon && Clean[T];
          if (Ok && Graph.node(T).Succs.size() == 1) {
            CfgNodeId Body = Graph.soleSuccessor(T);
            Ok = Body < Ncommon && Clean[Body];
          }
        }
      } else if (!stoppingNode(Node)) {
        Ok = Node.Succs.size() == 1;
        if (Ok) {
          CfgNodeId Next = Node.Succs.front().Target;
          Ok = Next < Ncommon && Safe[Next];
        }
      }
      if (!Ok) {
        Safe[N] = 0;
        Changed = true;
      }
    }
  }

  SeedTrace = Seed.Trace.get();
  ReplayOn = true;
  if (Opts.Replay)
    Opts.Replay->SeedUsed = true;
}

/// Nodes where advanceToQuiescence leaves a set blocked (or forks): the
/// end points of the macro-step walk. Everything else advances through
/// its sole successor.
bool Engine::stoppingNode(const CfgNode &N) const {
  switch (N.Kind) {
  case CfgNodeKind::Branch:
  case CfgNodeKind::Exit:
  case CfgNodeKind::Recv:
    return true;
  case CfgNodeKind::Send:
    return Opts.Sends == SendSemantics::Blocking;
  case CfgNodeKind::Wait:
  case CfgNodeKind::Waitall: {
    auto It = WaitPlans.find(N.Id);
    // NoOp waits step straight over; AsRecv blocks, Imprecise fails in
    // place — both of the latter end the walk.
    return !(It != WaitPlans.end() &&
             It->second.Result == WaitResolution::Kind::NoOp);
  }
  default:
    return false;
  }
}

/// Every CFG reference of \p St must survive into the current graph.
/// Popped states need the full quiescence walk clean (Safe); states
/// inside recorded effects only need the nodes the committer itself
/// reads (terminal/exit test, loop flag, node labels) — Clean suffices,
/// and their own step, if ever popped, is re-validated then.
bool Engine::stateAdoptable(const PcfgState &St, bool NeedSafe) const {
  for (const ProcSetEntry &Set : St.Sets) {
    if (Set.Node >= Ncommon)
      return false;
    if (!(NeedSafe ? Safe[Set.Node] : Clean[Set.Node]))
      return false;
  }
  for (const PendingSend &P : St.InFlight)
    if (P.SendNode >= Ncommon || !Clean[P.SendNode])
      return false;
  return true;
}

/// Would a cold step over \p Popped produce exactly the recorded effects?
/// True only when every graph read the step performs — the quiescence
/// walks from each set, each in-flight send's payload node, and the
/// submit-side reads on each successor state — lands on provably
/// unchanged nodes. Conservative by design: any doubt says no.
bool Engine::adoptable(const TraceStep &Rec, const PcfgState &Popped) const {
  if (Rec.Fx.Error)
    return false;
  if (!stateAdoptable(Popped, /*NeedSafe=*/true))
    return false;
  std::size_t Submits = 0;
  for (const StepEffects::Item &It : Rec.Fx.Items) {
    if (It.K == StepEffects::Item::Kind::Fail)
      return false; // Converged traces carry none; refuse defensively.
    if (It.K == StepEffects::Item::Kind::Submit) {
      ++Submits;
      if (!stateAdoptable(*It.Sub, /*NeedSafe=*/false))
        return false;
    }
  }
  if (Submits != Rec.Outcomes.size())
    return false; // Malformed trace (e.g. truncated by a failure).
  for (const CommitOutcome &O : Rec.Outcomes)
    if (O.K == CommitOutcome::Kind::Updated &&
        !stateAdoptable(*O.NewState, /*NeedSafe=*/false))
      return false;
  return true;
}

/// Points every recorded in-flight send's destination AST at the current
/// graph. The adoption check proved the node clean, so the new Partner is
/// structurally identical to the recorded one — this only swaps which
/// (equivalent) AST the state references, making the adopted state
/// bit-identical to what a cold run would have built and freeing the
/// trace from the prior run's AST lifetime.
void Engine::remapTraceStates(TraceStep &T) const {
  auto Remap = [&](PcfgState &St) {
    for (PendingSend &P : St.InFlight)
      P.DestExprAst = Graph.node(P.SendNode).Partner;
  };
  for (StepEffects::Item &It : T.Fx.Items)
    if (It.K == StepEffects::Item::Kind::Submit)
      Remap(*It.Sub);
  for (CommitOutcome &O : T.Outcomes)
    if (O.K == CommitOutcome::Kind::Updated)
      Remap(*O.NewState);
}

/// Replays one recorded step: applies its effect log exactly like
/// commitEffects, but resolves each Submit with the recorded committer
/// decision instead of re-running joins. When this run is itself being
/// captured, the remapped copy joins the new trace so the new trace
/// references only the current AST.
void Engine::adoptStep(const TraceStep &Rec, WorkItem W) {
  TraceStep Local = Rec; // Copy-on-write states make this cheap.
  remapTraceStates(Local);
  if (Captured)
    Captured->Steps.push_back(Local);
  Result.MaxSetsSeen = std::max(Result.MaxSetsSeen, Local.Fx.SetsSeen);
  std::size_t NextOutcome = 0;
  for (StepEffects::Item &It : Local.Fx.Items) {
    switch (It.K) {
    case StepEffects::Item::Kind::Match:
      Result.Matches.insert(std::move(It.Match));
      break;
    case StepEffects::Item::Kind::Print:
      Result.PrintFacts.insert(std::move(It.Print));
      break;
    case StepEffects::Item::Kind::TagConflict:
      noteTagConflict(It.ConflictSend, It.ConflictRecv);
      break;
    case StepEffects::Item::Kind::Leak:
      Result.Bugs.push_back(std::move(It.Leak));
      break;
    case StepEffects::Item::Kind::Snapshot:
      Result.FinalSnapshots.push_back(std::move(It.Snapshot));
      break;
    case StepEffects::Item::Kind::Fail:
      // Unreachable: adoptable() refuses steps with failures.
      fail(It.FailKind, It.FailReason, std::move(It.FailConfig));
      break;
    case StepEffects::Item::Kind::Submit:
      applyRecordedSubmission(std::move(*It.Sub), It.SubKey,
                              Local.Outcomes[NextOutcome++]);
      break;
    }
  }
  Configs[W.Config].Variants[W.Variant].Stuck = std::move(Local.Fx.StuckBugs);
}

/// The replay twin of commitSubmission: identical table bookkeeping,
/// with the join/widen/equality work replaced by the recorded decision.
void Engine::applyRecordedSubmission(PcfgState St, const std::string &Key,
                                     CommitOutcome &Out) {
  auto [IdIt, New] =
      ConfigIds.emplace(Key, static_cast<std::uint32_t>(Configs.size()));
  if (New) {
    Configs.push_back(ConfigEntry{Key, {}});
    Result.ConfigsVisited++;
  }
  std::uint32_t Cid = IdIt->second;
  std::vector<Stored> &Variants = Configs[Cid].Variants;
  switch (Out.K) {
  case CommitOutcome::Kind::NewVariant:
    Variants.push_back(Stored{std::move(St), 1, {}});
    push(Cid, Variants.size() - 1);
    return;
  case CommitOutcome::Kind::Fixpoint:
    Variants[Out.Variant].Visits++;
    return;
  case CommitOutcome::Kind::Updated: {
    Stored &Entry = Variants[Out.Variant];
    Entry.Visits++;
    Entry.State = std::move(*Out.NewState); // Recorded post-close state.
    Entry.Stamp++;
    Entry.Stuck.clear();
    push(Cid, Out.Variant);
    return;
  }
  }
}

/// Folds the submitted state into the configuration table: joins/widens
/// with a stored variant and enqueues when something changed. This is the
/// serialized half of the old submit(); the feasibility check,
/// normalization and terminal handling already ran on the Stepper.
void Engine::commitSubmission(PcfgState St, const std::string &Key,
                              bool AtLoopHeader) {
  auto [IdIt, New] =
      ConfigIds.emplace(Key, static_cast<std::uint32_t>(Configs.size()));
  if (New) {
    Configs.push_back(ConfigEntry{Key, {}});
    Result.ConfigsVisited++;
  }
  std::uint32_t Cid = IdIt->second;
  std::vector<Stored> &Variants = Configs[Cid].Variants;

  // Try to fold the new state into an existing variant; states that are
  // not joinable (e.g. successive stages of a pipeline with no loop
  // variable naming their progress) become separate variants.
  for (size_t V = 0; V < Variants.size(); ++V) {
    Stored &Entry = Variants[V];
    PcfgState Acc = Entry.State;
    bool Widen = AtLoopHeader && Entry.Visits >= Opts.WidenDelay;
    bool Ok = Widen ? widenStates(Acc, St) : joinStates(Acc, St);
    if (!Ok)
      continue;
    Entry.Visits++;
    if (statesEqual(Acc, Entry.State)) {
      if (tracingEnabled())
        std::fprintf(stderr, "submit: fixpoint at %s (variant %zu)\n",
                     Key.c_str(), V);
      if (Recording) {
        CommitOutcome O;
        O.K = CommitOutcome::Kind::Fixpoint;
        O.Variant = static_cast<std::uint32_t>(V);
        Recording->Outcomes.push_back(std::move(O));
      }
      return; // Fixpoint at this variant.
    }
    if (tracingEnabled())
      std::fprintf(stderr, "submit: %s variant %zu updated (%s)\n",
                   Key.c_str(), V, Widen ? "widen" : "join");
    Entry.State = std::move(Acc);
    // Close before the state becomes visible to speculating workers
    // (closed-shared-block invariant; see DESIGN.md).
    Entry.State.Cg.close();
    Entry.Stamp++; // Invalidates speculation snapshotted from the old state.
    Entry.Stuck.clear(); // Superseded; the variant will be re-stepped.
    push(Cid, V);
    if (Recording) {
      CommitOutcome O;
      O.K = CommitOutcome::Kind::Updated;
      O.Variant = static_cast<std::uint32_t>(V);
      O.NewState = Entry.State; // Post-close; exactly what the table holds.
      Recording->Outcomes.push_back(std::move(O));
    }
    return;
  }
  if (Variants.size() >= Opts.MaxVariantsPerConfig) {
    fail(BudgetKind::Variants,
         "too many unjoinable states at configuration " + Key, Key);
    return;
  }
  Variants.push_back(Stored{std::move(St), 1, {}});
  push(Cid, Variants.size() - 1);
  if (Recording)
    Recording->Outcomes.emplace_back(); // Default kind: NewVariant.
}

/// Replays one step's effect log against the result and the table, in
/// the exact order the mutations happened on the Stepper.
void Engine::commitEffects(StepEffects &Fx) {
  Result.MaxSetsSeen = std::max(Result.MaxSetsSeen, Fx.SetsSeen);
  for (StepEffects::Item &It : Fx.Items) {
    switch (It.K) {
    case StepEffects::Item::Kind::Match:
      Result.Matches.insert(std::move(It.Match));
      break;
    case StepEffects::Item::Kind::Print:
      Result.PrintFacts.insert(std::move(It.Print));
      break;
    case StepEffects::Item::Kind::TagConflict:
      noteTagConflict(It.ConflictSend, It.ConflictRecv);
      break;
    case StepEffects::Item::Kind::Leak:
      Result.Bugs.push_back(std::move(It.Leak));
      break;
    case StepEffects::Item::Kind::Snapshot:
      Result.FinalSnapshots.push_back(std::move(It.Snapshot));
      break;
    case StepEffects::Item::Kind::Fail:
      fail(It.FailKind, It.FailReason, std::move(It.FailConfig));
      break;
    case StepEffects::Item::Kind::Submit:
      commitSubmission(std::move(*It.Sub), It.SubKey, It.SubAtLoopHeader);
      break;
    }
  }
  // The sequential engine applied mutations until the exception; the log
  // replicates that partial application, then the exception continues.
  if (Fx.Error)
    std::rethrow_exception(Fx.Error);
}

/// Runs one Stepper over \p Cur, capturing any exception into the log so
/// the mutations that preceded it still commit in order.
StepEffects Engine::computeStep(const PcfgState &Cur, unsigned TraceId) const {
  Stepper S(Graph, Opts, Loops, AssignedVars, WaitPlans, HsmMemo);
  StepEffects Fx;
  try {
    S.step(Cur, TraceId);
    Fx = S.takeEffects();
  } catch (...) {
    Fx = S.takeEffects();
    Fx.Error = std::current_exception();
  }
  return Fx;
}

/// The classic Figure 4 drain: compute and commit one step at a time.
/// Also the only drain that replays and captures: worklist position i
/// corresponds to trace step i in both directions.
void Engine::drainSequential() {
  while (Head < Worklist.size() && !ToppedOut) {
    budgetCheckpoint();
    if (Result.StatesExplored >= Opts.MaxStates) {
      fail(BudgetKind::States, "state budget exceeded");
      break;
    }
    WorkItem W = Worklist[Head];
    std::size_t Pos = Head++;
    Configs[W.Config].Variants[W.Variant].InWorklist = false;
    CurrentConfig = Configs[W.Config].Key;
    Result.StatesExplored++;
    StepsTotal++;

    // While the replay window is open and every CFG node this step would
    // read is provably unchanged, adopt the recorded step wholesale. The
    // first doubt closes the window forever: from there the table may
    // evolve differently from the recording run, so later recorded
    // positions no longer correspond.
    if (ReplayOn &&
        (Pos >= SeedTrace->Steps.size() ||
         !adoptable(SeedTrace->Steps[Pos],
                    Configs[W.Config].Variants[W.Variant].State)))
      ReplayOn = false;
    if (ReplayOn) {
      StepsAdopted++;
      adoptStep(SeedTrace->Steps[Pos], W);
      continue;
    }

    StepsLive++;
    StepEffects Fx = computeStep(Configs[W.Config].Variants[W.Variant].State,
                                 static_cast<unsigned>(Pos) + 1);
    if (Captured) {
      Captured->Steps.emplace_back();
      Recording = &Captured->Steps.back();
      // Copy the log before commitEffects moves its payloads into the
      // result; CoW states make the copy cheap.
      Recording->Fx = Fx;
    }
    commitEffects(Fx);
    Recording = nullptr;
    // Re-index: the commit may have grown Configs/Variants (references
    // into either would dangle).
    Configs[W.Config].Variants[W.Variant].Stuck = std::move(Fx.StuckBugs);
  }
}

/// A speculative step in flight on the pool.
struct SpecSlot {
  std::mutex M;
  std::condition_variable Cv;
  bool Done = false;
  StepEffects Fx;
  /// Stamp of the stored state when the snapshot was taken.
  std::uint64_t Stamp = 0;
  /// Private copy-on-write snapshot of the stored state.
  PcfgState Snapshot;
  unsigned TraceId = 0;
};

/// The parallel drain: workers step a bounded window of upcoming worklist
/// entries speculatively; the coordinator commits strictly at Head. A
/// committed update bumps the variant's stamp, so speculation computed
/// from the superseded state is detected and re-run inline — dropped
/// without waiting, since the task only reads its private snapshot and
/// thread-safe shared structures. Commit order equals sequential order,
/// so the result is bit-identical to Threads=1 by construction.
void Engine::drainParallel() {
  ThreadPool Pool(Opts.Threads);
  std::unordered_map<std::size_t, std::shared_ptr<SpecSlot>> Specs;
  const std::size_t Window = static_cast<std::size_t>(Opts.Threads) * 2;
  std::size_t NextSpec = 0;
  AnalysisBudget *Budget = Opts.Budget;

  while (Head < Worklist.size() && !ToppedOut) {
    budgetCheckpoint();
    if (Result.StatesExplored >= Opts.MaxStates) {
      fail(BudgetKind::States, "state budget exceeded");
      break;
    }

    // Keep a bounded window of speculative steps in flight.
    if (NextSpec < Head)
      NextSpec = Head;
    for (std::size_t Hi = std::min(Worklist.size(), Head + Window);
         NextSpec < Hi; ++NextSpec) {
      WorkItem W = Worklist[NextSpec];
      const Stored &E = Configs[W.Config].Variants[W.Variant];
      auto Slot = std::make_shared<SpecSlot>();
      Slot->Stamp = E.Stamp;
      Slot->Snapshot = E.State; // CoW; shared blocks are closed.
      Slot->TraceId = static_cast<unsigned>(NextSpec) + 1;
      Specs.emplace(NextSpec, Slot);
      Pool.run([this, Slot, Budget] {
        // Thread-local context does not cross into pool threads: install
        // the run's budget and recoverable-error regime here.
        BudgetScope Budgets(Budget);
        RecoveryScope Recover;
        StepEffects Fx = computeStep(Slot->Snapshot, Slot->TraceId);
        {
          std::lock_guard<std::mutex> L(Slot->M);
          Slot->Fx = std::move(Fx);
          Slot->Done = true;
        }
        Slot->Cv.notify_all();
      });
    }

    WorkItem W = Worklist[Head];
    std::size_t Pos = Head++;
    Configs[W.Config].Variants[W.Variant].InWorklist = false;
    CurrentConfig = Configs[W.Config].Key;
    Result.StatesExplored++;
    StepsTotal++;
    StepsLive++; // Replay/capture force Threads=1; this drain is all-live.

    StepEffects Fx;
    bool UsedSpeculation = false;
    if (auto It = Specs.find(Pos); It != Specs.end()) {
      std::shared_ptr<SpecSlot> Slot = std::move(It->second);
      Specs.erase(It);
      if (Slot->Stamp == Configs[W.Config].Variants[W.Variant].Stamp) {
        std::unique_lock<std::mutex> L(Slot->M);
        Slot->Cv.wait(L, [&] { return Slot->Done; });
        Fx = std::move(Slot->Fx);
        UsedSpeculation = true;
      }
      // Stale: the stored state changed after the snapshot was taken;
      // drop the speculation (no need to wait for it) and re-step inline.
    }
    if (!UsedSpeculation)
      Fx = computeStep(Configs[W.Config].Variants[W.Variant].State,
                       static_cast<unsigned>(Pos) + 1);
    commitEffects(Fx);
    Configs[W.Config].Variants[W.Variant].Stuck = std::move(Fx.StuckBugs);
  }
  // Pool dtor joins tasks still running (their shared SpecSlots keep all
  // referenced state alive) and discards queued-but-unstarted ones.
}

/// Seeds the initial state and drains the worklist (the Figure 4 loop).
/// Throws BudgetExceeded/EngineError; run() owns recovery.
void Engine::explore() {
  PcfgState Init(Opts.Backend);
  ProcSetEntry All;
  All.Name = "p0";
  All.Range = ProcRange::all();
  All.Node = Graph.entryId();
  Init.Sets.push_back(std::move(All));
  // One intern table and one closure memo serve the whole run: every state
  // is a (copy-on-write) descendant of Init, so all constraint graphs the
  // engine ever touches share them. Batch threads mode pre-shares both
  // across runs to amortize closure work (see AnalysisOptions).
  Init.Cg = ConstraintGraph(Opts.Backend, Stats,
                            Opts.SharedSymbols ? Opts.SharedSymbols
                                               : std::make_shared<SymbolTable>(),
                            Opts.SharedMemo ? Opts.SharedMemo
                                            : std::make_shared<ClosureMemo>());
  Init.Cg.addLowerBound("np", std::max<std::int64_t>(Opts.MinProcs, 1));
  if (Opts.FixedNp > 0)
    Init.Cg.addEQ(LinearExpr("np", 0), LinearExpr(Opts.FixedNp));
  for (const auto &[Name, Value] : Opts.Params) {
    Init.Cg.addEQ(LinearExpr(Name, 0), LinearExpr(Value));
    Init.Facts.addRewrite(Name, Poly(Value));
  }
  {
    Stepper S(Graph, Opts, Loops, AssignedVars, WaitPlans, HsmMemo);
    StepEffects Fx;
    try {
      S.seed(std::move(Init));
      Fx = S.takeEffects();
    } catch (...) {
      Fx = S.takeEffects();
      Fx.Error = std::current_exception();
    }
    commitEffects(Fx);
  }

  if (Opts.Threads > 1)
    drainParallel();
  else
    drainSequential();
}

/// Post-exploration verdicting: stuck-variant sweep, bug stamping,
/// deterministic ordering. Runs after a clean drain and after a budget
/// trip (partial results stay meaningful); skipped on internal error.
void Engine::finish() {
  // Variants still stuck at fixpoint are the Top states of Figure 4.
  // (Commit-order iteration; output-invariant because the bug list is
  // sorted and uniqued below and the fail reason carries no key.)
  for (const ConfigEntry &C : Configs) {
    for (const Stored &Entry : C.Variants) {
      if (Entry.Stuck.empty())
        continue;
      for (const AnalysisBug &Bug : Entry.Stuck)
        Result.Bugs.push_back(Bug);
      fail("all process sets blocked and no send-receive match could be "
           "proven");
    }
  }

  // Stamp each bug with its node's source location and emit in a
  // deterministic order: exploration order depends on worklist scheduling,
  // which callers (and golden tests) must not observe. Duplicate bugs from
  // several stuck variants of the same configuration collapse here too.
  for (AnalysisBug &Bug : Result.Bugs)
    Bug.Loc = Graph.node(Bug.Node).Loc;
  std::sort(Result.Bugs.begin(), Result.Bugs.end());
  Result.Bugs.erase(std::unique(Result.Bugs.begin(), Result.Bugs.end(),
                                [](const AnalysisBug &A, const AnalysisBug &B) {
                                  return !(A < B) && !(B < A);
                                }),
                    Result.Bugs.end());

  Result.Converged = !ToppedOut;
}

AnalysisResult Engine::run() {
  ScopedTimer Timer(*Stats, "pcfg.analysis.seconds");

  // Install the session budget (if any) for the numeric core, matcher, and
  // prover to poll, and make invariant violations recoverable: one
  // pathological program must degrade this result, not kill the process.
  AnalysisBudget *Budget = Opts.Budget;
  if (Budget && !Budget->started())
    Budget->begin();
  BudgetScope Budgets(Budget);
  RecoveryScope Recover;
  CrashContext Ctx("running pCFG analysis", [this] {
    return CurrentConfig.empty() ? std::string("<initial state>")
                                 : "configuration " + CurrentConfig;
  });

  try {
    try {
      explore();
    } catch (const BudgetExceeded &E) {
      fail(E.kind(), E.reason(), CurrentConfig);
    }
    finish();
  } catch (const EngineError &E) {
    // Invariant violation reached from input: report InternalError with
    // whatever context we have. Partial results are untrustworthy, so do
    // not run the verdicting epilogue over them.
    Result.Outcome.Verdict = AnalysisVerdict::InternalError;
    Result.Outcome.Budget = BudgetKind::None;
    Result.Outcome.Reason = E.what();
    Result.Outcome.Configuration = CurrentConfig;
    Result.Converged = false;
    Result.TopReason = std::string("internal error: ") + E.what();
  }
  // Deposit the captured trace only for converged runs: a degraded or
  // failed exploration is both untrustworthy and not worth replaying.
  // The trace outlives this session's (typically stack-local) budget, so
  // every contained DBM block must first be released from accounting —
  // the same escape hatch ClosureMemo uses for cross-session blocks.
  if (Captured && Result.Converged && Opts.Capture) {
    for (TraceStep &S : Captured->Steps) {
      for (StepEffects::Item &It : S.Fx.Items)
        if (It.K == StepEffects::Item::Kind::Submit)
          It.Sub->Cg.detachAccounting();
      for (CommitOutcome &O : S.Outcomes)
        if (O.K == CommitOutcome::Kind::Updated)
          O.NewState->Cg.detachAccounting();
    }
    Opts.Capture->Trace = std::move(Captured);
  }
  if (Opts.Replay) {
    Opts.Replay->TotalSteps = StepsTotal;
    Opts.Replay->AdoptedSteps = StepsAdopted;
    Opts.Replay->LiveSteps = StepsLive;
  }
  return std::move(Result);
}

} // namespace

AnalysisResult csdf::analyzeProgram(const Cfg &Graph,
                                    const AnalysisOptions &Opts,
                                    StatsRegistry *Stats) {
  Engine E(Graph, Opts, Stats);
  return E.run();
}
