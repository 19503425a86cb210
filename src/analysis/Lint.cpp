//===- analysis/Lint.cpp ---------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/RequestCheck.h"
#include "cfg/CfgBuilder.h"
#include "dataflow/SeqAnalyses.h"
#include "lang/ExprOps.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "numeric/ConstraintGraph.h"
#include "pcfg/Engine.h"
#include "pcfg/PartnerExpr.h"
#include "support/Casting.h"

#include <algorithm>

using namespace csdf;

//===----------------------------------------------------------------------===//
// Pass registry
//===----------------------------------------------------------------------===//

const std::vector<LintPassInfo> &csdf::lintPassRegistry() {
  static const std::vector<LintPassInfo> Registry = {
      {"parse", "syntax errors from the MPL parser",
       "The MPL parser could not build an AST for part of the input. "
       "Nothing past the front end runs until the syntax error is fixed."},
      {"sema", "semantic checks (reserved names, nondeterministic partners, "
               "never-assigned variables)",
       "Structural problems the type-free front end can prove without "
       "dataflow: writes to the reserved 'id'/'np' names, request handles "
       "reused as scalar variables, and variables read but never assigned "
       "anywhere."},
      {"use-before-init",
       "a variable is read on some path before any assignment reaches it",
       "Definite-assignment dataflow found a read that some execution path "
       "reaches before any assignment to the variable; on that path the "
       "value is undefined."},
      {"dead-store", "an assigned value is never read afterwards",
       "Liveness dataflow found an assignment whose value no later "
       "statement can observe; the store is wasted work or a logic error."},
      {"unreachable-code",
       "a statement can never execute (constant branch or infinite loop)",
       "Constant-branch pruning found statements cut off from the entry "
       "node on every execution, e.g. code after 'while true' or inside "
       "'if false'."},
      {"send-to-self",
       "a send/recv whose partner expression is provably the process itself",
       "The partner expression folds to the process's own rank. Under "
       "rendezvous semantics a self-send blocks forever; a self-receive "
       "only completes after a buffered self-send."},
      {"partner-bounds",
       "a partner expression provably evaluates outside the valid rank "
       "range [0, np)",
       "The difference-constraint graph proves the partner rank is always "
       "negative or always at least np, so the operation addresses a "
       "process that cannot exist."},
      {"tag-mismatch-const",
       "a constant message tag that no opposite operation ever uses",
       "A send (or receive) carries a constant tag, every opposite "
       "operation also uses constant tags, and none of them matches: the "
       "operation can never pair up."},
      {"request-leak",
       "a non-blocking request may never be waited on, or is re-posted "
       "while still outstanding (the in-flight message is lost)",
       "Request-lifecycle dataflow found an isend/irecv posting that can "
       "reach program exit without a completing wait, or a re-post of a "
       "handle whose earlier posting is still in flight. Either way the "
       "earlier operation is never completed and its message is lost."},
      {"double-wait",
       "a request may be waited on twice without an intervening re-post",
       "Some path reaches a 'wait r' after an earlier wait already "
       "completed the same posting of 'r'. The interpreter treats this as "
       "a runtime error, matching MPI's invalid-request semantics."},
      {"wait-uninit",
       "a wait may execute before any isend/irecv posts its request",
       "Some path reaches a 'wait r' without passing any posting of 'r'; "
       "on that path the wait operates on an uninitialized request handle, "
       "a runtime error in the interpreter."},
      {"buffer-race",
       "an irecv destination buffer is read or written between the posting "
       "and the matching wait, racing with message delivery",
       "Between an 'irecv x ... req r' and the wait that completes it, the "
       "message may land in 'x' at any moment. A read of 'x' in that "
       "window observes a timing-dependent value; a write races with the "
       "delivery itself."},
      {"message-leak",
       "pCFG analysis: a sent message no receive ever consumes",
       "The pCFG dataflow engine proved a send deposits a message that "
       "remains in flight in every reachable terminal state."},
      {"possible-deadlock",
       "pCFG analysis: process sets blocked with no possible match",
       "The pCFG dataflow engine reached a state where some process sets "
       "block on communication and no matching partner can ever arrive."},
      {"tag-mismatch",
       "pCFG analysis: matched send/recv with provably different tags",
       "The pCFG dataflow engine matched a send and receive on the same "
       "channel whose tag expressions are provably unequal."},
      {"match-nondet",
       "pCFG analysis: a wildcard receive with two or more statically "
       "eligible senders; which message arrives first depends on timing",
       "A 'recv ... <- any' (or wildcard irecv) has at least two "
       "statically eligible senders in some reachable state. The value "
       "received depends on message timing, so the program's result is "
       "nondeterministic; the analysis also degrades to Top there because "
       "exact matching is impossible."},
      {"analysis-top",
       "pCFG analysis hit Top and gave up; bridge findings may be "
       "incomplete",
       "A resource bound or precision limit forced the engine to return "
       "Top. Findings already reported remain sound facts about the "
       "explored prefix, but the topology and bug list may be incomplete."},
      {"internal-error",
       "the pCFG analysis recovered from an internal invariant violation; "
       "its results must not be trusted",
       "The engine caught an internal invariant violation and discarded "
       "its partial results instead of aborting the process."},
  };
  return Registry;
}

bool csdf::isKnownLintPass(const std::string &Name) {
  for (const LintPassInfo &P : lintPassRegistry())
    if (P.Name == Name)
      return true;
  return false;
}

std::map<std::string, std::string> csdf::lintRuleDescriptions() {
  std::map<std::string, std::string> Rules;
  for (const LintPassInfo &P : lintPassRegistry())
    Rules["csdf." + P.Name] = P.Description;
  return Rules;
}

std::map<std::string, SarifRuleDoc> csdf::lintRuleDocs() {
  std::map<std::string, SarifRuleDoc> Docs;
  for (const LintPassInfo &P : lintPassRegistry())
    Docs["csdf." + P.Name] = {
        P.Description, P.Help.empty() ? P.Description : P.Help,
        "https://example.org/csdf/DESIGN.md#rule-" + P.Name};
  return Docs;
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

namespace {

/// Collects every variable read in \p E with the location of the reference
/// (unlike collectVars, which drops locations). `id`/`np` are ambient and
/// excluded. Names are interned on sight so callers work in VarIds — one
/// hash per reference and no string copies on the per-node path.
void collectVarReads(const Expr *E, SymbolTable &Syms,
                     std::vector<std::pair<VarId, SourceLoc>> &Reads) {
  if (!E)
    return;
  if (const auto *V = dyn_cast<VarRefExpr>(E)) {
    if (!V->isProcessId() && !V->isProcessCount())
      Reads.push_back({Syms.intern(V->name()), V->loc()});
    return;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    return collectVarReads(U->operand(), Syms, Reads);
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    collectVarReads(B->lhs(), Syms, Reads);
    collectVarReads(B->rhs(), Syms, Reads);
  }
}

/// All expressions a CFG node evaluates.
std::vector<const Expr *> nodeExprs(const CfgNode &Node) {
  std::vector<const Expr *> Exprs;
  for (const Expr *E : {Node.Value, Node.Cond, Node.Partner, Node.Tag})
    if (E)
      Exprs.push_back(E);
  return Exprs;
}

bool isSendOp(const CfgNode &Node) {
  return Node.Kind == CfgNodeKind::Send || Node.Kind == CfgNodeKind::Isend;
}

const char *commOpName(const CfgNode &Node) {
  return isSendOp(Node) ? "send" : "receive";
}

//===----------------------------------------------------------------------===//
// use-before-init
//===----------------------------------------------------------------------===//

void lintUseBeforeInit(const Cfg &Graph, DiagnosticEngine &Diags) {
  // Variables never assigned anywhere are external parameters (sema already
  // warns about them); only flag variables the program does assign, but not
  // on every path reaching the use.
  auto Syms = std::make_shared<SymbolTable>();
  // VarIds are dense, so "assigned somewhere" is a bitmap rather than a
  // string set; the per-use test below is an integer index, and the name
  // is only materialized (Syms->name) when a diagnostic actually fires.
  std::vector<bool> AssignedSomewhere;
  for (const CfgNode &Node : Graph.nodes())
    if (Node.Kind == CfgNodeKind::Assign || Node.Kind == CfgNodeKind::Recv ||
        Node.Kind == CfgNodeKind::Irecv) {
      VarId Id = Syms->intern(Node.Var);
      if (Id >= AssignedSomewhere.size())
        AssignedSomewhere.resize(Id + 1, false);
      AssignedSomewhere[Id] = true;
    }

  DataflowResult<DefiniteAssignDomain> Assigned =
      computeDefiniteAssigns(Graph, Syms);

  std::vector<std::pair<VarId, SourceLoc>> Reads;
  for (const CfgNode &Node : Graph.nodes()) {
    const DefiniteAssignDomain::Fact &In = Assigned.In[Node.Id];
    for (const Expr *E : nodeExprs(Node)) {
      Reads.clear();
      collectVarReads(E, *Syms, Reads);
      for (const auto &[Id, Loc] : Reads) {
        if (Id >= AssignedSomewhere.size() || !AssignedSomewhere[Id] ||
            In.contains(Id))
          continue;
        Diags.report(makeDiag(
            "use-before-init", DiagSeverity::Warning,
            Loc.isValid() ? Loc : Node.Loc,
            "variable '" + Syms->name(Id) +
                "' may be used before initialization",
            "it is assigned on some paths but not on all paths reaching "
            "this use"));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// dead-store
//===----------------------------------------------------------------------===//

void lintDeadStore(const Cfg &Graph, DiagnosticEngine &Diags) {
  auto Syms = std::make_shared<SymbolTable>();
  // Intern each assignment target once up front; the check loop then
  // queries liveness by VarId instead of re-hashing the name per node.
  std::vector<VarId> AssignVar(Graph.size(), InvalidVarId);
  for (const CfgNode &Node : Graph.nodes())
    if (Node.Kind == CfgNodeKind::Assign)
      AssignVar[Node.Id] = Syms->intern(Node.Var);
  DataflowResult<LiveVarsDomain> Live = computeLiveVars(Graph, Syms);
  for (const CfgNode &Node : Graph.nodes()) {
    if (Node.Kind != CfgNodeKind::Assign)
      continue;
    if (Live.Out[Node.Id].count(AssignVar[Node.Id]))
      continue;
    Diags.report(makeDiag("dead-store", DiagSeverity::Warning, Node.Loc,
                          "value assigned to '" + Node.Var +
                              "' is never read",
                          "remove the assignment or use the variable"));
  }
}

//===----------------------------------------------------------------------===//
// unreachable-code
//===----------------------------------------------------------------------===//

void lintUnreachable(const Cfg &Graph, DiagnosticEngine &Diags) {
  // Reachability from entry, pruning branch edges whose condition folds to
  // a constant. This catches code after `while true` loops and inside
  // `if false` arms.
  std::vector<bool> Reached(Graph.size(), false);
  std::vector<CfgNodeId> Stack = {Graph.entryId()};
  Reached[Graph.entryId()] = true;
  while (!Stack.empty()) {
    CfgNodeId Id = Stack.back();
    Stack.pop_back();
    const CfgNode &Node = Graph.node(Id);
    std::optional<std::int64_t> Taken;
    if (Node.isBranch() && Node.Cond)
      Taken = foldConstant(Node.Cond);
    for (const CfgEdge &E : Node.Succs) {
      if (Taken && Node.isBranch()) {
        bool WantTrue = *Taken != 0;
        if ((E.Kind == CfgEdgeKind::True) != WantTrue &&
            E.Kind != CfgEdgeKind::Fallthrough)
          continue;
      }
      if (!Reached[E.Target]) {
        Reached[E.Target] = true;
        Stack.push_back(E.Target);
      }
    }
  }

  // Report only region roots (an unreachable node with a reachable
  // predecessor) so one diagnostic covers each dead region.
  for (const CfgNode &Node : Graph.nodes()) {
    if (Reached[Node.Id] || !Node.Loc.isValid())
      continue;
    bool IsRoot = Node.Preds.empty();
    for (CfgNodeId P : Node.Preds)
      if (Reached[P])
        IsRoot = true;
    if (!IsRoot)
      continue;
    Diags.report(makeDiag("unreachable-code", DiagSeverity::Warning, Node.Loc,
                          "statement is unreachable",
                          "a constant branch or infinite loop cuts off "
                          "every path to it"));
  }
}

//===----------------------------------------------------------------------===//
// send-to-self
//===----------------------------------------------------------------------===//

void lintSendToSelf(const Cfg &Graph, DiagnosticEngine &Diags) {
  for (const CfgNode &Node : Graph.nodes()) {
    if (!Node.isCommOp() || !Node.Partner)
      continue;
    auto Offset = matchIdPlusC(Node.Partner);
    if (!Offset || *Offset != 0)
      continue;
    bool IsSend = isSendOp(Node);
    Diags.report(makeDiag(
        "send-to-self", DiagSeverity::Warning, Node.Loc,
        std::string(IsSend ? "send to self: destination" : "receive from "
                                                           "self: source") +
            " '" + exprToString(Node.Partner) + "' is provably the "
            "process's own rank",
        IsSend ? "under rendezvous semantics a self-send blocks forever"
               : "a self-receive only completes after a buffered self-send"));
  }
}

//===----------------------------------------------------------------------===//
// partner-bounds
//===----------------------------------------------------------------------===//

void lintPartnerBounds(const Cfg &Graph, const LintOptions &Opts,
                       DiagnosticEngine &Diags) {
  // The rank invariants every execution satisfies: 0 <= id < np, np >= 1
  // (MinProcs sharpens that), plus any pinned np / grid parameters.
  ConstraintGraph Cg;
  Cg.addLowerBound("np", std::max<std::int64_t>(Opts.Analysis.MinProcs, 1));
  Cg.addLowerBound("id", 0);
  Cg.addLE("id", "np", -1);
  if (Opts.Analysis.FixedNp > 0)
    Cg.addEQ(Cg.form("np"), LinearExpr(Opts.Analysis.FixedNp));
  for (const auto &[Name, Value] : Opts.Analysis.Params)
    Cg.addEQ(Cg.form(Name), LinearExpr(Value));
  if (!Cg.isFeasible())
    return; // Contradictory options: everything would be vacuously provable.

  // The two bound forms are loop-invariant: resolve them to slots once.
  // The loop below only queries (never mutates), which keeps the resolved
  // forms valid.
  const ConstraintGraph::ResolvedForm MinusOne = Cg.resolve(LinearExpr(-1));
  const ConstraintGraph::ResolvedForm Np = Cg.resolve(Cg.form("np"));

  for (const CfgNode &Node : Graph.nodes()) {
    if (!Node.isCommOp() || !Node.Partner)
      continue;
    auto L = LinearExpr::fromExpr(Node.Partner, *Cg.symbolsPtr());
    if (!L)
      continue; // Outside the linear fragment: nothing provable here.
    ConstraintGraph::ResolvedForm Partner = Cg.resolve(*L);
    bool BelowZero = Cg.provesLE(Partner, MinusOne);
    bool AboveNp = Cg.provesLE(Np, Partner);
    if (!BelowZero && !AboveNp)
      continue;
    Diags.report(makeDiag(
        "partner-bounds", DiagSeverity::Error, Node.Loc,
        std::string(commOpName(Node)) + " partner '" +
            exprToString(Node.Partner) + "' provably evaluates outside "
            "[0, np)",
        BelowZero ? "the partner rank is always negative"
                  : "the partner rank is always >= np"));
  }
}

//===----------------------------------------------------------------------===//
// tag-mismatch-const
//===----------------------------------------------------------------------===//

void lintConstTagMismatch(const Cfg &Graph, DiagnosticEngine &Diags) {
  // Flow-insensitive: collect the constant tags on each side. A missing
  // tag expression means tag 0. A non-constant tag on the opposite side
  // makes the check inconclusive for this direction.
  struct Op {
    const CfgNode *Node;
    std::optional<std::int64_t> Tag;
  };
  std::vector<Op> Sends, Recvs;
  for (const CfgNode &Node : Graph.nodes()) {
    if (!Node.isCommOp())
      continue;
    std::optional<std::int64_t> Tag =
        Node.Tag ? foldConstant(Node.Tag) : std::optional<std::int64_t>(0);
    (isSendOp(Node) ? Sends : Recvs).push_back({&Node, Tag});
  }
  if (Sends.empty() || Recvs.empty())
    return; // One-sided programs are message-leak/deadlock territory.

  auto Check = [&](const std::vector<Op> &These,
                   const std::vector<Op> &Those, const char *Opposite) {
    std::set<std::int64_t> TheirTags;
    for (const Op &O : Those) {
      if (!O.Tag)
        return; // A symbolic tag on the other side may match anything.
      TheirTags.insert(*O.Tag);
    }
    for (const Op &O : These) {
      if (!O.Tag || TheirTags.count(*O.Tag))
        continue;
      std::string Known;
      for (std::int64_t T : TheirTags)
        Known += (Known.empty() ? "" : ", ") + std::to_string(T);
      Diags.report(makeDiag(
          "tag-mismatch-const", DiagSeverity::Warning, O.Node->Loc,
          std::string(commOpName(*O.Node)) + " uses tag " +
              std::to_string(*O.Tag) + " but every " + Opposite +
              " uses a different constant tag",
          std::string(Opposite) + " tags in the program: {" + Known + "}"));
    }
  };
  Check(Sends, Recvs, "receive");
  Check(Recvs, Sends, "send");
}

//===----------------------------------------------------------------------===//
// pCFG bridge
//===----------------------------------------------------------------------===//

const char *bridgePassName(AnalysisBug::Kind Kind) {
  return analysisBugKindName(Kind); // "message-leak" / "possible-deadlock"
                                    // / "tag-mismatch" / "match-nondet" —
                                    // the pass names.
}

void lintPcfgBridge(const Cfg &Graph, const LintOptions &Opts,
                    DiagnosticEngine &Diags) {
  bool AnyBridge =
      Opts.isEnabled("message-leak") || Opts.isEnabled("possible-deadlock") ||
      Opts.isEnabled("tag-mismatch") || Opts.isEnabled("match-nondet") ||
      Opts.isEnabled("analysis-top") || Opts.isEnabled("internal-error");
  if (!AnyBridge)
    return;

  AnalysisOptions EngineOpts = Opts.Analysis;
  EngineOpts.CheckMatchNondet =
      EngineOpts.CheckMatchNondet && Opts.isEnabled("match-nondet");
  AnalysisResult R = analyzeProgram(Graph, EngineOpts);
  if (R.Outcome.internalError()) {
    // The engine recovered from an invariant violation: surface it as a
    // diagnostic instead of aborting the process, and do not relay bug
    // candidates from an untrustworthy run.
    if (Opts.isEnabled("internal-error"))
      Diags.report(makeDiag(
          "internal-error", DiagSeverity::Error, SourceLoc(),
          "pCFG analysis failed with an internal error: " + R.Outcome.Reason,
          R.Outcome.Configuration.empty()
              ? "please report this; analysis results were discarded"
              : "at configuration " + R.Outcome.Configuration +
                    "; please report this"));
    return;
  }
  for (const AnalysisBug &B : R.Bugs) {
    std::string Pass = bridgePassName(B.TheKind);
    if (!Opts.isEnabled(Pass))
      continue;
    Diags.report(makeDiag(Pass, DiagSeverity::Warning, B.Loc, B.Detail,
                          "reported by the pCFG dataflow analysis"));
  }
  if (!R.Converged && Opts.isEnabled("analysis-top"))
    Diags.report(makeDiag("analysis-top", DiagSeverity::Note, SourceLoc(),
                          "pCFG analysis gave up (Top): " + R.TopReason,
                          "bug candidates and the topology may be "
                          "incomplete"));
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

void csdf::runLintPasses(const Cfg &Graph, const LintOptions &Opts,
                         DiagnosticEngine &Diags) {
  if (Opts.isEnabled("use-before-init"))
    lintUseBeforeInit(Graph, Diags);
  if (Opts.isEnabled("dead-store"))
    lintDeadStore(Graph, Diags);
  if (Opts.isEnabled("unreachable-code"))
    lintUnreachable(Graph, Diags);
  if (Opts.isEnabled("send-to-self"))
    lintSendToSelf(Graph, Diags);
  if (Opts.isEnabled("partner-bounds"))
    lintPartnerBounds(Graph, Opts, Diags);
  if (Opts.isEnabled("tag-mismatch-const"))
    lintConstTagMismatch(Graph, Diags);
  runRequestChecks(Graph, Opts, Diags);
  lintPcfgBridge(Graph, Opts, Diags);
}

bool csdf::lintSource(const std::string &Source, const LintOptions &Opts,
                      DiagnosticEngine &Diags, LintArtifacts *Artifacts) {
  // Shared from the start: the CFG (and any engine trace captured through
  // it) stores pointers into this AST, and Artifacts holders keep both.
  auto Parsed = std::make_shared<ParseResult>(parseProgram(Source));
  if (!Parsed->succeeded()) {
    if (Opts.isEnabled("parse"))
      for (const ParseDiagnostic &D : Parsed->Diagnostics)
        Diags.report(
            makeDiag("parse", DiagSeverity::Error, D.Loc, D.Message));
    return false;
  }

  SemaResult Sema = checkProgram(Parsed->Prog);
  if (Opts.isEnabled("sema"))
    for (const SemaDiagnostic &D : Sema.Diagnostics)
      Diags.report(makeDiag("sema",
                            D.isError() ? DiagSeverity::Error
                                        : DiagSeverity::Warning,
                            D.Loc, D.Message));
  if (Sema.hasErrors())
    return false;

  auto Graph = std::make_shared<Cfg>(buildCfg(Parsed->Prog));
  if (Artifacts) {
    Artifacts->Parsed = Parsed;
    Artifacts->Graph = Graph;
  }
  runLintPasses(*Graph, Opts, Diags);
  return true;
}
