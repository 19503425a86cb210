//===- pcfg/AnalysisResult.h - Output of the pCFG analysis --------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the analysis produces: the established send-receive matches
/// (the communication topology), facts provable at print statements (the
/// constant-propagation client's output, Figure 2), detected bug
/// candidates, the Top/converged verdict, and exploration statistics for
/// the Section IX benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_ANALYSISRESULT_H
#define CSDF_PCFG_ANALYSISRESULT_H

#include "pcfg/PcfgState.h"
#include "support/Budget.h"

#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace csdf {

/// A provable fact at a print statement: which processes print and, if
/// pinned, the constant they print.
struct PrintFact {
  CfgNodeId Node = 0;
  std::string SetRange;
  std::optional<std::int64_t> Value;

  bool operator<(const PrintFact &O) const {
    return std::tie(Node, SetRange, Value) <
           std::tie(O.Node, O.SetRange, O.Value);
  }
  bool operator==(const PrintFact &O) const {
    return Node == O.Node && SetRange == O.SetRange && Value == O.Value;
  }
};

/// A statically detected bug candidate.
struct AnalysisBug {
  enum class Kind {
    /// A sent message that no receive ever consumes.
    MessageLeak,
    /// Process sets blocked on communication with no possible match.
    PossibleDeadlock,
    /// Send and receive on the same channel with provably different tags.
    TagMismatch,
    /// A wildcard (`any`-source) receive with two or more statically
    /// eligible senders: which message arrives first depends on timing.
    MatchNondet,
  };

  Kind TheKind = Kind::MessageLeak;
  CfgNodeId Node = 0;
  /// Source location of Node's originating statement; filled in by the
  /// engine from the CFG so every bug carries a real line:column.
  SourceLoc Loc;
  std::string Detail;

  /// Deterministic reporting order: by source location, then kind, then
  /// node id, then detail text.
  friend bool operator<(const AnalysisBug &A, const AnalysisBug &B) {
    return std::tie(A.Loc, A.TheKind, A.Node, A.Detail) <
           std::tie(B.Loc, B.TheKind, B.Node, B.Detail);
  }
};

/// Returns a short name for \p Kind.
const char *analysisBugKindName(AnalysisBug::Kind Kind);

/// How an analysis session ended, ordered from best to worst.
enum class AnalysisVerdict {
  /// Reached a fixpoint; results are the full abstraction the framework
  /// can express.
  Complete,
  /// A resource budget or precision limit forced the framework to pass
  /// Top (Section VI): partial results below remain sound facts about the
  /// explored prefix, but the topology may be incomplete.
  DegradedToTop,
  /// An internal invariant violation was caught and recovered; results
  /// must not be trusted.
  InternalError,
};

/// Returns a short name for \p Verdict ("complete", "degraded-to-top",
/// "internal-error").
const char *analysisVerdictName(AnalysisVerdict Verdict);

/// Structured description of how the analysis ended — the replacement for
/// matching on bare TopReason strings.
struct AnalysisOutcome {
  AnalysisVerdict Verdict = AnalysisVerdict::Complete;

  /// For DegradedToTop: which resource bound tripped, or BudgetKind::None
  /// for a precision give-up (unprovable send-receive match).
  BudgetKind Budget = BudgetKind::None;

  /// Human-readable reason (empty for Complete).
  std::string Reason;

  /// The pCFG configuration being processed when the analysis gave up or
  /// failed, when one was active (e.g. the configuration whose variant
  /// set overflowed). Empty otherwise.
  std::string Configuration;

  bool complete() const { return Verdict == AnalysisVerdict::Complete; }
  bool degraded() const { return Verdict == AnalysisVerdict::DegradedToTop; }
  bool internalError() const {
    return Verdict == AnalysisVerdict::InternalError;
  }

  /// Renders "complete", "degraded-to-top(deadline)", or
  /// "internal-error" — the stable one-token form the CLI prints and the
  /// batch report stores.
  std::string str() const;
};

/// The result of running the pCFG dataflow analysis on a program.
struct AnalysisResult {
  /// True when the analysis reached a fixpoint without giving up. A false
  /// value means the framework passed Top (Section VI): the topology may
  /// be incomplete.
  bool Converged = false;
  std::string TopReason;

  /// Structured verdict; kept in sync with Converged/TopReason (which
  /// remain for existing callers: Converged == Outcome.complete() unless
  /// the verdict is InternalError, where Converged is also false).
  AnalysisOutcome Outcome;

  /// Established send-receive matches (the communication topology).
  std::set<MatchRecord> Matches;

  /// Constant-propagation facts at print statements.
  std::set<PrintFact> PrintFacts;

  /// Bug candidates (meaningful even when Converged is false).
  std::vector<AnalysisBug> Bugs;

  /// One entry per reachable terminal state (all process sets at exit):
  /// for every program variable, the constant it provably holds on *all*
  /// processes, or nullopt when unknown / divergent across processes.
  /// Input for the constant-sharing client (Section I).
  std::vector<std::map<std::string, std::optional<std::int64_t>>>
      FinalSnapshots;

  /// Exploration statistics.
  unsigned StatesExplored = 0;
  unsigned ConfigsVisited = 0;
  unsigned MaxSetsSeen = 0;
  double Seconds = 0.0;

  /// All (send node, recv node) pairs in Matches.
  std::set<std::pair<CfgNodeId, CfgNodeId>> matchedNodePairs() const {
    std::set<std::pair<CfgNodeId, CfgNodeId>> Pairs;
    for (const MatchRecord &M : Matches)
      Pairs.insert({M.SendNode, M.RecvNode});
    return Pairs;
  }

  bool hasBug(AnalysisBug::Kind Kind) const {
    for (const AnalysisBug &B : Bugs)
      if (B.TheKind == Kind)
        return true;
    return false;
  }
};

} // namespace csdf

#endif // CSDF_PCFG_ANALYSISRESULT_H
