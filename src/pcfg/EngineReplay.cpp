//===- pcfg/EngineReplay.cpp - Seed validation and trace rebasing ---------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/EngineReplay.h"

#include "lang/ExprOps.h"
#include "pcfg/Replay.h"

#include <algorithm>

using namespace csdf;

namespace {

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

/// Nodes where advanceToQuiescence leaves a set blocked (or forks): the
/// end points of the macro-step walk. Everything else advances through
/// its sole successor.
bool stoppingNode(const StepInputs &In, const CfgNode &N) {
  switch (N.Kind) {
  case CfgNodeKind::Branch:
  case CfgNodeKind::Exit:
  case CfgNodeKind::Recv:
    return true;
  case CfgNodeKind::Send:
    return In.Opts.Sends == SendSemantics::Blocking;
  case CfgNodeKind::Wait:
  case CfgNodeKind::Waitall: {
    auto It = In.WaitPlans.find(N.Id);
    // NoOp waits step straight over; AsRecv blocks, Imprecise fails in
    // place — both of the latter end the walk.
    return !(It != In.WaitPlans.end() &&
             It->second.Result == WaitResolution::Kind::NoOp);
  }
  default:
    return false;
  }
}

} // namespace

std::string SeedValidator::validate(const StepInputs &In,
                                    const LoopInfo &Loops) {
  const AnalysisOptions &Opts = In.Opts;
  const Cfg &Graph = In.Graph;
  const EngineSeed &Seed = *Opts.Seed;
  if (!Seed.Trace || !Seed.PriorGraph)
    return "seed missing trace or prior graph";
  if (Opts.Budget && Opts.Budget->limited())
    return "budget-limited run; replaying is disabled";
  if (!Opts.SharedSymbols || Opts.SharedSymbols != Seed.Symbols)
    return "symbol table differs from the seed's";
  if (Seed.OptionsFingerprint != Opts.fingerprint())
    return "analysis options differ from the recording run's";

  // The transfer functions scope variables through the *global* assigned-
  // variable set (PcfgState::scopedVar); recorded states are only
  // meaningful when that set is unchanged.
  const Cfg &Old = *Seed.PriorGraph;
  GraphFacts OldFacts = GraphFacts::compute(Old);
  if (OldFacts.AssignedVars != In.AssignedVars)
    return "assigned-variable set changed";

  // Per-node structural diff over the common id range.
  LoopInfo OldLoops(Old);
  Ncommon = static_cast<CfgNodeId>(std::min(Old.size(), Graph.size()));
  Clean.assign(Ncommon, 0);
  for (CfgNodeId N = 0; N < Ncommon; ++N)
    Clean[N] = nodeSignature(Old, OldLoops, OldFacts.WaitPlans, N) ==
               nodeSignature(Graph, Loops, In.WaitPlans, N);

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
      } else if (!stoppingNode(In, Node)) {
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
  return "";
}

/// Every CFG reference of \p St must survive into the current graph.
/// Popped states need the full quiescence walk clean (Safe); states
/// inside recorded effects only need the nodes the committer itself
/// reads (terminal/exit test, loop flag, node labels) — Clean suffices,
/// and their own step, if ever popped, is re-validated then.
bool SeedValidator::stateAdoptable(const PcfgState &St, bool NeedSafe) const {
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

/// True only when every graph read the step performs — the quiescence
/// walks from each set, each in-flight send's payload node, and the
/// submit-side reads on each successor state — lands on provably
/// unchanged nodes.
bool SeedValidator::adoptable(const TraceStep &Rec,
                              const PcfgState &Popped) const {
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

void csdf::remapTraceStates(TraceStep &T, const Cfg &Graph) {
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
