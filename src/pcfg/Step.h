//===- pcfg/Step.h - One pCFG step as an effect log (engine-internal) -----===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between computing a step of the Figure 4 loop and committing
/// it. Stepper.cpp holds the transfer functions, matching and
/// normalization; the engine reaches them only through computeStep() and
/// seedStep(), which log every mutation the step would make instead of
/// performing it. The engine commits the log; capture records it, with
/// the committer's decisions, as an AnalysisTrace; replay adopts recorded
/// logs without recomputing them (pcfg/Replay.h).
///
/// Internal to the pcfg library: no header outside src/pcfg includes it.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_STEP_H
#define CSDF_PCFG_STEP_H

#include "cfg/RequestInfo.h"
#include "hsm/HsmExpr.h"
#include "pcfg/AnalysisResult.h"

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace csdf {

/// Set the CSDF_TRACE_PCFG environment variable to get a step-by-step
/// dump of the exploration on stderr.
inline bool tracingEnabled() {
  static bool Enabled = std::getenv("CSDF_TRACE_PCFG") != nullptr;
  return Enabled;
}

/// The ordered effect log of stepping one state. A step never touches
/// the engine's result, configuration table, or worklist: each mutation
/// it would have performed is logged here as an item, and the engine
/// applies the items in order. The log keeps mutations that preceded an
/// exception (Error carries it; the committer applies the partial log,
/// then rethrows).
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

/// The step inputs that depend on the graph alone. Computed once per run
/// for the engine, and for the seed's graph by replay validation.
struct GraphFacts {
  /// Variables assigned anywhere in the program (PcfgState::scopedVar).
  std::set<std::string> AssignedVars;
  /// Static wait resolution, one entry per wait/waitall node: which
  /// posting it completes and whether it behaves as a no-op, a receive, or
  /// is beyond the abstraction (degrades to Top when reached).
  std::map<CfgNodeId, WaitResolution> WaitPlans;

  static GraphFacts compute(const Cfg &Graph);
};

/// The read-only inputs every step of one run shares. The engine owns
/// all of them for the whole run.
struct StepInputs {
  const Cfg &Graph;
  const AnalysisOptions &Opts;
  /// Variables assigned anywhere in the program (PcfgState::scopedVar).
  const std::set<std::string> &AssignedVars;
  /// Static wait resolution, one entry per wait/waitall node.
  const std::map<CfgNodeId, WaitResolution> &WaitPlans;
  /// The run's HSM match memo. A cache: it changes no result.
  HsmMatchMemo &HsmMemo;
};

/// Processes one state: advances all unblocked sets to quiescence, forks
/// at branches, then matches, or reports stuckness. \p TraceId is the
/// 1-based worklist position of the step (trace output only). An
/// exception is caught into StepEffects::Error.
StepEffects computeStep(const StepInputs &In, const PcfgState &Cur,
                        unsigned TraceId);

/// Submits the initial state (the seeding half of Figure 4), with the
/// same exception handling as computeStep().
StepEffects seedStep(const StepInputs &In, PcfgState Init);

} // namespace csdf

#endif // CSDF_PCFG_STEP_H
