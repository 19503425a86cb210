//===- pcfg/Engine.cpp ---------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/Engine.h"

#include "cfg/LoopInfo.h"
#include "pcfg/EngineReplay.h"
#include "pcfg/Replay.h"
#include "support/Budget.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace csdf;

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

namespace {

/// The engine proper: owns the configuration table, the worklist and
/// the AnalysisResult, and is the only mutator of all three. Each step is
/// either computed live (pcfg/Step.h) or adopted from a seed trace; both
/// kinds reach the table through one commit path.
class Engine {
public:
  Engine(const Cfg &Graph, const AnalysisOptions &Opts, StatsRegistry *Stats)
      : Graph(Graph), Opts(Opts), Stats(Stats), Loops(Graph),
        HsmMemo(Stats), Facts(GraphFacts::compute(Graph)) {
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

  StepInputs stepInputs() const {
    return {Graph, Opts, Facts.AssignedVars, Facts.WaitPlans, HsmMemo};
  }

  std::uint32_t internConfig(const std::string &Key);
  CommitOutcome decideSubmission(std::uint32_t Cid,
                                 const PcfgState &St) const;
  void applyOutcome(std::uint32_t Cid, PcfgState St, CommitOutcome Out);
  void commitEffects(StepEffects &Fx, std::vector<CommitOutcome> *Recorded);
  void setupReplay();
  void drain();
  void explore();
  void finish();

  const Cfg &Graph;
  AnalysisOptions Opts;
  StatsRegistry *Stats;
  LoopInfo Loops;
  /// The run's HSM match memo. A cache: it changes no result, so const
  /// members may hand it out. Freed with the engine, so nothing it holds
  /// outlives the run.
  mutable HsmMatchMemo HsmMemo;
  GraphFacts Facts;
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
  /// The step currently being recorded; commitEffects appends its
  /// outcome decisions here. Null outside a recorded commit (in
  /// particular during the initial seeding commit, which is not traced).
  TraceStep *Recording = nullptr;
  /// Validated seed trace to replay from (null = cold run).
  const AnalysisTrace *SeedTrace = nullptr;
  /// True while recorded steps are still being adopted. Cleared forever
  /// at the first non-adoptable step: from there the configuration table
  /// may evolve differently from the recording run.
  bool ReplayOn = false;
  /// Which recorded steps the seed lets this run adopt.
  SeedValidator Validator;
  /// Step counters for ReplayStats.
  unsigned StepsTotal = 0, StepsAdopted = 0, StepsLive = 0;
};

/// Validates the seed (if any) and prepares capture. Runs once, from the
/// constructor, after Facts are computed.
void Engine::setupReplay() {
  // Limit-bounded runs neither replay nor capture: a deadline makes the
  // exploration prefix nondeterministic, which is exactly what a trace
  // must not be. (An unlimited budget is pure accounting and is fine.)
  if (Opts.Budget && Opts.Budget->limited())
    Opts.Capture.reset();
  if (Opts.Capture)
    Captured = std::make_shared<AnalysisTrace>();
  if (!Opts.Seed)
    return;
  std::string Why = Validator.validate(stepInputs(), Loops);
  if (!Why.empty()) {
    if (Opts.Replay)
      Opts.Replay->SeedRejectReason = std::move(Why);
    return;
  }
  SeedTrace = Opts.Seed->Trace.get();
  ReplayOn = true;
  if (Opts.Replay)
    Opts.Replay->SeedUsed = true;
}

/// Interns \p Key into the configuration table and returns its dense id.
std::uint32_t Engine::internConfig(const std::string &Key) {
  auto [IdIt, New] =
      ConfigIds.emplace(Key, static_cast<std::uint32_t>(Configs.size()));
  if (New) {
    Configs.push_back(ConfigEntry{Key, {}});
    Result.ConfigsVisited++;
  }
  return IdIt->second;
}

/// Decides where a submitted state goes in configuration \p Cid: folded
/// into the first variant it joins (or widens) with, or appended as a new
/// variant. Reads the table only; applyOutcome performs the decision.
CommitOutcome Engine::decideSubmission(std::uint32_t Cid,
                                       const PcfgState &St) const {
  const ConfigEntry &C = Configs[Cid];
  // Widen only at configurations with a set inside a CFG loop body:
  // repeated visits there are genuine loop iterations needing finite
  // ascent, and loop guards are re-established by branch transfers on the
  // next pass (the standard widening-with-guard pattern). Everywhere else
  // a plain join converges once the loops stabilize.
  bool AtLoopHeader = std::any_of(
      St.Sets.begin(), St.Sets.end(),
      [&](const ProcSetEntry &Set) { return Loops.isInLoop(Set.Node); });
  // States that are not joinable (e.g. successive stages of a pipeline
  // with no loop variable naming their progress) become separate
  // variants.
  for (size_t V = 0; V < C.Variants.size(); ++V) {
    const Stored &Entry = C.Variants[V];
    PcfgState Acc = Entry.State;
    bool Widen = AtLoopHeader && Entry.Visits >= Opts.WidenDelay;
    bool Ok = Widen ? widenStates(Acc, St) : joinStates(Acc, St);
    if (!Ok)
      continue;
    CommitOutcome Out;
    Out.Variant = static_cast<std::uint32_t>(V);
    if (statesEqual(Acc, Entry.State)) {
      if (tracingEnabled())
        std::fprintf(stderr, "submit: fixpoint at %s (variant %zu)\n",
                     C.Key.c_str(), V);
      Out.K = CommitOutcome::Kind::Fixpoint;
      return Out;
    }
    if (tracingEnabled())
      std::fprintf(stderr, "submit: %s variant %zu updated (%s)\n",
                   C.Key.c_str(), V, Widen ? "widen" : "join");
    // The join leaves the accumulator unclosed; close it before the
    // table stores (and shares) it, as the Stepper does on submit.
    Acc.Cg.close();
    Out.K = CommitOutcome::Kind::Updated;
    Out.NewState = std::move(Acc);
    return Out;
  }
  return CommitOutcome{}; // Default kind: NewVariant.
}

/// Applies a commit decision, live or recorded, to configuration \p Cid.
void Engine::applyOutcome(std::uint32_t Cid, PcfgState St, CommitOutcome Out) {
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
    Entry.State = std::move(*Out.NewState);
    Entry.Stuck.clear(); // Superseded; the variant will be re-stepped.
    push(Cid, Out.Variant);
    return;
  }
  }
}

/// Applies one step's effect log to the result and the table, in the
/// exact order the Stepper logged the mutations. A live step (\p Recorded
/// null) decides each Submit by joining; an adopted step resolves it with
/// the recorded decision instead of re-running joins.
void Engine::commitEffects(StepEffects &Fx,
                           std::vector<CommitOutcome> *Recorded) {
  Result.MaxSetsSeen = std::max(Result.MaxSetsSeen, Fx.SetsSeen);
  std::size_t NextOutcome = 0;
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
    case StepEffects::Item::Kind::Submit: {
      std::uint32_t Cid = internConfig(It.SubKey);
      CommitOutcome Out =
          Recorded ? std::move((*Recorded)[NextOutcome++])
                   : decideSubmission(Cid, *It.Sub);
      if (Out.K == CommitOutcome::Kind::NewVariant &&
          Configs[Cid].Variants.size() >= Opts.MaxVariantsPerConfig) {
        fail(BudgetKind::Variants,
             "too many unjoinable states at configuration " + It.SubKey,
             It.SubKey);
        break;
      }
      if (Recording)
        Recording->Outcomes.push_back(Out);
      applyOutcome(Cid, std::move(*It.Sub), std::move(Out));
      break;
    }
    }
  }
  // The log holds the mutations up to the exception; they are applied,
  // then the exception continues.
  if (Fx.Error)
    std::rethrow_exception(Fx.Error);
}

/// The Figure 4 drain: take one worklist position at a time, adopt or
/// compute its step, commit it. Worklist position i corresponds to trace
/// step i in both directions.
void Engine::drain() {
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
         !Validator.adoptable(SeedTrace->Steps[Pos],
                              Configs[W.Config].Variants[W.Variant].State)))
      ReplayOn = false;
    TraceStep Step;
    if (ReplayOn) {
      StepsAdopted++;
      Step = SeedTrace->Steps[Pos]; // Copy-on-write states make this cheap.
      remapTraceStates(Step, Graph);
    } else {
      StepsLive++;
      Step.Fx = computeStep(stepInputs(),
                            Configs[W.Config].Variants[W.Variant].State,
                            static_cast<unsigned>(Pos) + 1);
    }
    if (Captured) {
      Captured->Steps.emplace_back();
      Recording = &Captured->Steps.back();
      // Copy the log before commitEffects moves its payloads into the
      // result; CoW states make the copy cheap.
      Recording->Fx = Step.Fx;
    }
    commitEffects(Step.Fx, ReplayOn ? &Step.Outcomes : nullptr);
    Recording = nullptr;
    // Re-index: the commit may have grown Configs/Variants (references
    // into either would dangle).
    Configs[W.Config].Variants[W.Variant].Stuck = std::move(Step.Fx.StuckBugs);
  }
}

/// Seeds the initial state and drains the worklist (the Figure 4 loop).
/// Throws BudgetExceeded/EngineError; run() owns recovery.
void Engine::explore() {
  PcfgState Init;
  // One intern table and one closure memo serve the whole run: every state
  // is a (copy-on-write) descendant of Init, so all constraint graphs the
  // engine ever touches share them. Batch threads mode pre-shares both
  // across runs to amortize closure work (see AnalysisOptions).
  Init.Cg = ConstraintGraph(Stats,
                            Opts.SharedSymbols ? Opts.SharedSymbols
                                               : std::make_shared<SymbolTable>(),
                            Opts.SharedMemo ? Opts.SharedMemo
                                            : std::make_shared<ClosureMemo>());
  ProcSetEntry All;
  All.Name = "p0";
  All.Range = ProcRange::all(*Init.Cg.symbolsPtr());
  All.Node = Graph.entryId();
  Init.Sets.push_back(std::move(All));
  Init.Cg.addLowerBound("np", std::max<std::int64_t>(Opts.MinProcs, 1));
  if (Opts.FixedNp > 0)
    Init.Cg.addEQ(Init.Cg.form("np"), LinearExpr(Opts.FixedNp));
  for (const auto &[Name, Value] : Opts.Params) {
    Init.Cg.addEQ(Init.Cg.form(Name), LinearExpr(Value));
    Init.Facts.addRewrite(Name, Poly(Value));
  }
  StepEffects Seeded = seedStep(stepInputs(), std::move(Init));
  commitEffects(Seeded, nullptr);
  drain();
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
