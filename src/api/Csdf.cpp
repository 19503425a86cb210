//===- api/Csdf.cpp -------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "api/Csdf.h"

#include "analysis/Lint.h"
#include "api/Pipeline.h"
#include "numeric/ConstraintGraph.h"
#include "numeric/SymbolTable.h"
#include "support/Budget.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "support/Version.h"

#include <algorithm>
#include <chrono>
#include <future>

using namespace csdf;
using namespace csdf::api;

namespace {

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Resolves a request's source text per the facade contract: inline
/// Source wins; otherwise the file at Path is read. Returns false with
/// the usage-error text set.
bool resolveSource(const std::string &Path,
                   const std::optional<std::string> &Inline,
                   std::string &Source, std::string &Error,
                   bool EmptyIsError) {
  if (Inline) {
    Source = *Inline;
    if (Source.empty() && EmptyIsError) {
      // Mirror readSessionFile's empty-input contract for inline sources.
      Error = "error: '" + Path + "' is empty";
      return false;
    }
    return true;
  }
  return readSessionFile(Path, Source, Error);
}

/// Procedures (and the main body, keyed "") whose canonical fingerprint
/// differs between two revisions — added, removed, or edited.
std::uint64_t countChangedProcs(const ProgramFingerprints &Old,
                                const ProgramFingerprints &New) {
  std::uint64_t Changed = Old.Main != New.Main ? 1 : 0;
  for (const auto &[Name, Hash] : New.Procs) {
    auto It = Old.Procs.find(Name);
    if (It == Old.Procs.end() || It->second != Hash)
      ++Changed;
  }
  for (const auto &[Name, Hash] : Old.Procs)
    if (!New.Procs.count(Name))
      ++Changed;
  return Changed;
}

/// Canonical key of the lint-only request knobs, layered on top of the
/// shared options fingerprint (same shape the serve daemon uses for its
/// lint cache keys).
std::string lintKnobsKey(const LintRequest &Req) {
  std::string Key = "werror=" + std::to_string(Req.Werror);
  Key += ";minsev=" + std::to_string(static_cast<int>(Req.MinSeverity));
  Key += ";disabled={";
  for (const std::string &Pass : Req.Disabled)
    Key += Pass + ",";
  Key += "}";
  return Key;
}

} // namespace

Analyzer::Analyzer(const AnalyzerConfig &Config)
    : Config(Config), Syms(std::make_shared<SymbolTable>()),
      Memo(std::make_shared<ClosureMemo>(/*CrossSession=*/true)) {}

Analyzer::~Analyzer() = default;

ThreadPool &Analyzer::pool(unsigned Workers) {
  Workers = std::max(1u, Workers);
  if (!Pool || PoolWorkers != Workers) {
    Pool = std::make_unique<ThreadPool>(Workers);
    PoolWorkers = Workers;
  }
  return *Pool;
}

AnalyzeResponse Analyzer::analyze(const AnalyzeRequest &Req) {
  // Cold mode hands the session null handles, i.e. fresh per-run state —
  // the classic isolated run.
  return analyzeWith(Req, Config.WarmState ? Syms : nullptr,
                     Config.WarmState ? Memo : nullptr);
}

AnalyzeResponse
Analyzer::analyzeWith(const AnalyzeRequest &Req,
                      std::shared_ptr<SymbolTable> SharedSyms,
                      std::shared_ptr<ClosureMemo> SharedMemo) {
  AnalyzeResponse Resp;
  Resp.OptionsFingerprint = Req.Options.fingerprint();
  std::uint64_t Start = nowUs();

  std::string Source, Error;
  if (!resolveSource(Req.Path, Req.Source, Source, Error,
                     /*EmptyIsError=*/true)) {
    Resp.Session.ExitCode = SessionExitUsage;
    Resp.Session.Error = Error;
    Resp.WallUs = nowUs() - Start;
    return Resp;
  }

  SessionOptions Opts = Req.Options.session();
  Opts.Analysis.SharedSymbols = std::move(SharedSyms);
  Opts.Analysis.SharedMemo = std::move(SharedMemo);
  Resp.Session = runAnalysisSession(Req.Path, Source, Opts);
  Resp.WallUs = nowUs() - Start;
  return Resp;
}

PipelineCache &Analyzer::cache() {
  if (!Cache)
    Cache = std::make_unique<PipelineCache>();
  return *Cache;
}

AnalyzeResponse Analyzer::analyzeIncremental(const AnalyzeRequest &Req) {
  IncStats.Requests++;

  // Budget-limited outcomes are timing-dependent: not safe to memoize,
  // and the engine refuses to capture or seed under them anyway.
  if (Req.Options.DeadlineMs || Req.Options.MaxMemoryMb ||
      Req.Options.ProverSteps) {
    IncStats.ColdRuns++;
    return analyzeWith(Req, Syms, Memo);
  }

  AnalyzeResponse Resp;
  std::string OptionsFp = Req.Options.fingerprint();
  Resp.OptionsFingerprint = OptionsFp;
  std::uint64_t Start = nowUs();

  std::string Source, Error;
  if (!resolveSource(Req.Path, Req.Source, Source, Error,
                     /*EmptyIsError=*/true)) {
    Resp.Session.ExitCode = SessionExitUsage;
    Resp.Session.Error = Error;
    Resp.WallUs = nowUs() - Start;
    return Resp;
  }

  AnalyzePipelineEntry *Prior = cache().findAnalyze(Req.Path);
  if (Prior && Prior->OptionsFp == OptionsFp && Prior->Source == Source) {
    // L0: byte-exact re-request. The cached response is plain data plus
    // owning handles; only the wall clock is this request's own.
    IncStats.CacheHits++;
    AnalyzeResponse Hit = Prior->Resp;
    Hit.FromCache = true;
    Hit.Replay = ReplayStats();
    Hit.WallUs = nowUs() - Start;
    return Hit;
  }

  // Live run, always warm: seeding requires the recording and the seeded
  // run to share one symbol intern table, so incremental requests use the
  // Analyzer's even in cold config.
  SessionOptions Opts = Req.Options.session();
  Opts.Analysis.SharedSymbols = Syms;
  Opts.Analysis.SharedMemo = Memo;
  auto Capture = std::make_shared<ReplayCapture>();
  auto RStats = std::make_shared<ReplayStats>();
  Opts.Analysis.Capture = Capture;
  Opts.Analysis.Replay = RStats;
  if (Prior && Prior->OptionsFp == OptionsFp && Prior->Trace &&
      Prior->Resp.Session.Graph && Prior->Resp.Session.Parsed) {
    auto Seed = std::make_shared<EngineSeed>();
    Seed->Trace = Prior->Trace;
    Seed->PriorGraph = Prior->Resp.Session.Graph;
    Seed->Symbols = Syms;
    Seed->PriorKeepAlive = Prior->Resp.Session.Parsed;
    Seed->OptionsFingerprint = Opts.Analysis.fingerprint();
    Opts.Analysis.Seed = std::move(Seed);
  }

  Resp.Session = runAnalysisSession(Req.Path, Source, Opts);
  Resp.WallUs = nowUs() - Start;
  Resp.Replay = *RStats;

  if (RStats->SeedUsed)
    IncStats.SeededRuns++;
  else
    IncStats.ColdRuns++;
  IncStats.AdoptedSteps += RStats->AdoptedSteps;
  IncStats.LiveSteps += RStats->LiveSteps;
  IncStats.LastSeedRejectReason = RStats->SeedRejectReason;

  AnalyzePipelineEntry Entry;
  Entry.OptionsFp = OptionsFp;
  Entry.Source = Source;
  Entry.Resp = Resp;
  Entry.Trace = Capture->Trace; // Null unless the engine converged.
  if (Resp.Session.Parsed && Resp.Session.Parsed->succeeded()) {
    Entry.FP = fingerprintProgram(Resp.Session.Parsed->Prog);
    if (Prior)
      IncStats.ChangedProcs += countChangedProcs(Prior->FP, Entry.FP);
  }
  cache().putAnalyze(Req.Path, std::move(Entry));
  return Resp;
}

LintResponse Analyzer::lintIncremental(const LintRequest &Req) {
  IncStats.Requests++;

  if (Req.Options.DeadlineMs || Req.Options.MaxMemoryMb ||
      Req.Options.ProverSteps) {
    IncStats.ColdRuns++;
    return lint(Req);
  }

  LintResponse Resp;
  std::uint64_t Start = nowUs();
  std::string Key = Req.Options.fingerprint() + ";" + lintKnobsKey(Req);

  std::string Source, Error;
  if (!resolveSource(Req.Path, Req.Source, Source, Error,
                     /*EmptyIsError=*/false)) {
    Resp.ExitCode = SessionExitUsage;
    Resp.Error = Error;
    Resp.WallUs = nowUs() - Start;
    return Resp;
  }

  LintPipelineEntry *Prior = cache().findLint(Req.Path);
  if (Prior && Prior->Key == Key && Prior->Source == Source) {
    IncStats.CacheHits++;
    LintResponse Hit = Prior->Resp;
    Hit.FromCache = true;
    Hit.Replay = ReplayStats();
    Hit.WallUs = nowUs() - Start;
    return Hit;
  }

  LintOptions Opts;
  Opts.Disabled = Req.Disabled;
  Opts.Analysis = Req.Options.analysis();
  Opts.Analysis.SharedSymbols = Syms;
  Opts.Analysis.SharedMemo = Memo;
  auto Capture = std::make_shared<ReplayCapture>();
  auto RStats = std::make_shared<ReplayStats>();
  Opts.Analysis.Capture = Capture;
  Opts.Analysis.Replay = RStats;
  if (Prior && Prior->Key == Key && Prior->Trace &&
      Prior->Artifacts.Graph && Prior->Artifacts.Parsed) {
    auto Seed = std::make_shared<EngineSeed>();
    Seed->Trace = Prior->Trace;
    Seed->PriorGraph = Prior->Artifacts.Graph;
    Seed->Symbols = Syms;
    Seed->PriorKeepAlive = Prior->Artifacts.Parsed;
    Seed->OptionsFingerprint = Opts.Analysis.fingerprint();
    Opts.Analysis.Seed = std::move(Seed);
  }

  // No budget: limited requests were delegated above, and lint's passes
  // are deterministic without one (MaxStates etc. still bound the engine).
  DiagnosticEngine Diags;
  LintArtifacts Artifacts;
  lintSource(Source, Opts, Diags, &Artifacts);
  if (Req.Werror)
    Diags.promoteWarningsToErrors();
  Diags.filterBelow(Req.MinSeverity);

  Resp.Diagnostics = Diags.diagnostics();
  Resp.ExitCode = Diags.exitCode();
  for (const Diagnostic &D : Resp.Diagnostics)
    if (D.Pass == "internal-error")
      Resp.ExitCode = SessionExitInternal;
  Resp.WallUs = nowUs() - Start;
  Resp.Replay = *RStats;

  if (RStats->SeedUsed)
    IncStats.SeededRuns++;
  else
    IncStats.ColdRuns++;
  IncStats.AdoptedSteps += RStats->AdoptedSteps;
  IncStats.LiveSteps += RStats->LiveSteps;
  IncStats.LastSeedRejectReason = RStats->SeedRejectReason;

  LintPipelineEntry Entry;
  Entry.Key = Key;
  Entry.Source = Source;
  Entry.Resp = Resp;
  Entry.Artifacts = Artifacts;
  Entry.Trace = Capture->Trace;
  if (Artifacts.Parsed && Artifacts.Parsed->succeeded()) {
    Entry.FP = fingerprintProgram(Artifacts.Parsed->Prog);
    if (Prior)
      IncStats.ChangedProcs += countChangedProcs(Prior->FP, Entry.FP);
  }
  cache().putLint(Req.Path, std::move(Entry));
  return Resp;
}

LintResponse Analyzer::lint(const LintRequest &Req) {
  LintResponse Resp;
  std::uint64_t Start = nowUs();

  std::string Source;
  if (Req.Source) {
    Source = *Req.Source;
  } else {
    std::string Error;
    if (!readSessionFile(Req.Path, Source, Error)) {
      Resp.ExitCode = SessionExitUsage;
      Resp.Error = Error;
      Resp.WallUs = nowUs() - Start;
      return Resp;
    }
  }

  LintOptions Opts;
  Opts.Disabled = Req.Disabled;
  Opts.Analysis = Req.Options.analysis();
  if (Config.WarmState) {
    Opts.Analysis.SharedSymbols = Syms;
    Opts.Analysis.SharedMemo = Memo;
  }

  AnalysisBudget Budget;
  Budget.DeadlineMs = Req.Options.DeadlineMs;
  Budget.MaxMemoryMb = Req.Options.MaxMemoryMb;
  Budget.MaxProverSteps = Req.Options.ProverSteps;
  Budget.begin();
  // The scope arms the parser/sema checkpoints (they reach the budget
  // through the thread-local, not AnalysisOptions), so the deadline
  // covers lint's front end too.
  BudgetScope Budgets(&Budget);
  Opts.Analysis.Budget = &Budget;

  DiagnosticEngine Diags;
  try {
    lintSource(Source, Opts, Diags);
  } catch (const BudgetExceeded &E) {
    // The budget tripped outside the engine (parse, sema, or a
    // post-engine pass): degrade like the engine's own give-up instead of
    // dying.
    if (Opts.isEnabled("analysis-top"))
      Diags.report(makeDiag("analysis-top", DiagSeverity::Note, SourceLoc(),
                            "lint gave up (Top): " + E.reason(),
                            "budget exhausted before the pass suite "
                            "finished; findings may be incomplete"));
  }
  if (Req.Werror)
    Diags.promoteWarningsToErrors();
  Diags.filterBelow(Req.MinSeverity);

  Resp.Diagnostics = Diags.diagnostics();
  Resp.ExitCode = Diags.exitCode();
  // A recovered engine invariant violation outranks ordinary findings.
  for (const Diagnostic &D : Resp.Diagnostics)
    if (D.Pass == "internal-error")
      Resp.ExitCode = SessionExitInternal;
  Resp.WallUs = nowUs() - Start;
  return Resp;
}

BatchReport Analyzer::runBatch(const BatchRequest &Req) {
  BatchOptions Opts;
  Opts.Session = Req.Options.session();
  Opts.Jobs = std::max(1u, Req.Jobs);
  Opts.Mode = Req.Mode;
  Opts.TimeoutMs = Req.TimeoutMs;
  // Hard address-space backstop behind the soft DBM ceiling: generous
  // headroom for code, stacks, and the front end.
  Opts.AddressSpaceMb =
      Req.Options.MaxMemoryMb ? Req.Options.MaxMemoryMb * 4 + 256 : 0;

  if (Req.Mode == BatchMode::Fork)
    return runBatchFork(Req.Files, Opts);

  // The shared-memory runner: sessions run on the Analyzer's pool, all
  // sharing one cross-session ClosureMemo so closure results computed for
  // one file are reused by every later one. Trades the fork mode's hard
  // crash isolation for zero process overhead; hangs are still bounded by
  // mapping TimeoutMs onto the cooperative budget deadline.
  BatchReport Report;
  Report.Entries.resize(Req.Files.size());
  for (size_t I = 0; I < Req.Files.size(); ++I)
    Report.Entries[I].File = Req.Files[I];

  // Warm analyzers amortize across batches too; a cold one still shares
  // within the batch (the mode's whole point), then drops the memo.
  std::shared_ptr<ClosureMemo> SharedMemo =
      Config.WarmState ? Memo
                       : std::make_shared<ClosureMemo>(/*CrossSession=*/true);

  {
    ThreadPool &P = pool(Opts.Jobs);
    std::vector<std::future<void>> Done;
    Done.reserve(Req.Files.size());
    for (size_t I = 0; I < Req.Files.size(); ++I) {
      Done.push_back(P.submit([&Report, &Req, &Opts, SharedMemo, I] {
        BatchEntry &E = Report.Entries[I]; // Disjoint per task: no lock.
        std::uint64_t Start = nowUs();
        SessionOptions SOpts = Opts.Session;
        // No SIGKILL backstop in-process: the wall-clock timeout becomes
        // (or tightens) the session's cooperative deadline.
        if (Opts.TimeoutMs &&
            (SOpts.DeadlineMs == 0 || Opts.TimeoutMs < SOpts.DeadlineMs))
          SOpts.DeadlineMs = Opts.TimeoutMs;
        // Memo only: concurrent sessions must not interleave their symbol
        // intern orders, so the table stays per-session here.
        SOpts.Analysis.SharedMemo = SharedMemo;
        E.Reason = BatchExitReason::Exited;
        try {
          E.ExitCode =
              runSessionOutcome(Req.Files[I], SOpts, E.Verdict, E.Detail);
        } catch (const std::exception &Ex) {
          // Sessions recover their own failures; this catches what leaks
          // anyway (e.g. bad_alloc) so one file cannot sink the batch.
          E.ExitCode = SessionExitInternal;
          E.Verdict = "internal-error";
          E.Detail = std::string("uncaught exception: ") + Ex.what();
        }
        E.WallMs = (nowUs() - Start) / 1000;
        // Peak RSS is a per-process number; in-process sessions share the
        // address space, so no per-file figure exists.
        E.PeakRssKb = 0;
      }));
    }
    for (std::future<void> &F : Done)
      F.get();
  }

  for (const BatchEntry &E : Report.Entries) {
    switch (E.ExitCode) {
    case SessionExitComplete:
      Report.Complete++;
      break;
    case SessionExitFindings:
      Report.Findings++;
      break;
    case SessionExitUsage:
      Report.UsageErrors++;
      break;
    default:
      Report.InternalErrors++;
      break;
    }
  }
  return Report;
}

BatchEntry csdf::api::toBatchEntry(const std::string &File,
                                   const AnalyzeResponse &R) {
  BatchEntry E;
  E.File = File;
  E.Reason = BatchExitReason::Exited;
  E.ExitCode = R.Session.ExitCode;
  sessionVerdict(R.Session, E.Verdict, E.Detail);
  E.WallMs = R.WallUs / 1000;
  E.PeakRssKb = 0;
  return E;
}

std::string csdf::api::verdictJson(const std::string &File,
                                   const AnalyzeResponse &R) {
  // The batch row schema, extended with the identity members every
  // non-batch JSON surface carries. Inserted before the closing brace so
  // the shared prefix stays byte-identical to a batch report entry.
  std::string Out = batchEntryJson(toBatchEntry(File, R));
  std::string Extra = ", \"tool_version\": \"" + std::string(toolVersion()) +
                      "\", \"options_fingerprint\": \"" +
                      jsonEscape(R.OptionsFingerprint) + "\"";
  Out.insert(Out.size() - 1, Extra);
  return Out;
}
