//===- perfbench/main.cpp - The bench of record ----------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// One closed-loop client (this thread) sends requests to the system under
// test and waits for each reply, as every real caller does (CLI, CI batch,
// editor). Three workloads:
//
//   kernels_oneshot  the corpus kernels and the examples/mpl programs, each
//                    request an analyze or a lint through a fresh cold
//                    api::Analyzer, as `csdf analyze` / `csdf lint` make it;
//   phases_cold      generated multi-phase programs analyzed cold under the
//                    cartesian preset (scatter family at a pinned np, grid
//                    programs symbolic);
//   serve_edit       one ServeServer fed JSON lines: exact repeats, single-
//                    literal edits and first-sight programs.
//
// A run repeats one fixed pass of requests and reports each request's
// fastest repeat (see LatencyRun).
//
// Every reply is checked against a reference that does not come from the
// code under test: the interpreter's trace for corpus kernels, the
// committed lint goldens for the examples, the generator's expected answer
// for generated programs. With --trace 1 the run also splits each request
// into spans around the public entry point of every layer and reports the
// per-layer metrics. The last stdout line is the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// Usage: csdf-perfbench --workload W --seed N --seconds S --trace 0|1
//                       --repo DIR --work-dir DIR
//        csdf-perfbench --self-test --seed N
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "Generator.h"
#include "Trace.h"

#include "analysis/Clients.h"
#include "analysis/Lint.h"
#include "api/Csdf.h"
#include "api/Wire.h"
#include "cfg/CfgBuilder.h"
#include "diag/DiagRenderer.h"
#include "driver/Serve.h"
#include "interp/Interpreter.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pcfg/Engine.h"
#include "support/Budget.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "topology/CommTopology.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace csdf;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// Setups per run; setup_s reports their median.
constexpr int SetupRepeats = 25;

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Called at each pass boundary with the run's request time so far: moves
/// this thread to the next CPU it may run on, round robin, once a second
/// of request time has passed since the last move (or the count restarted).
/// Another tenant can keep one CPU's core busy for a whole run; spread over
/// every CPU, a request's fastest repeat comes from whichever is quiet.
void nextCpu(double BusyUs) {
  static const cpu_set_t Allowed = [] {
    cpu_set_t S;
    CPU_ZERO(&S);
    sched_getaffinity(0, sizeof(S), &S);
    return S;
  }();
  static int Cpu = -1;
  static double LastUs = -1e18;
  if (BusyUs < LastUs + 1e6 && BusyUs >= LastUs)
    return;
  LastUs = BusyUs;
  for (int I = 0; I < CPU_SETSIZE; ++I) {
    Cpu = (Cpu + 1) % CPU_SETSIZE;
    if (CPU_ISSET(Cpu, &Allowed)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      sched_setaffinity(0, sizeof(One), &One);
      return;
    }
  }
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Drops the `"wall_ms": N` member of a verdict object: the only field
/// that differs between identical runs.
std::string stripWallMs(std::string Json) {
  const std::string Key = "\"wall_ms\": ";
  std::size_t At = Json.find(Key);
  if (At == std::string::npos)
    return Json;
  std::size_t End = Json.find_first_not_of("0123456789", At + Key.size());
  Json.erase(At, End - At);
  return Json;
}

/// The serve daemon's lint payload shape for \p Diags.
std::string lintPayload(const std::vector<Diagnostic> &Diags,
                        const std::string &Path, int ExitCode) {
  std::string Lines = renderDiagsJson(Diags, Path);
  std::string Arr = "[";
  std::size_t Pos = 0;
  while (Pos < Lines.size()) {
    std::size_t Nl = Lines.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Lines.size();
    if (Nl > Pos) {
      if (Arr.size() > 1)
        Arr += ',';
      Arr.append(Lines, Pos, Nl - Pos);
    }
    Pos = Nl + 1;
  }
  return "{\"diagnostics\":" + Arr + "],\"exit_code\":" +
         std::to_string(ExitCode) + "}";
}

LinePairs linePairs(const Cfg &G, const AnalysisResult &R) {
  LinePairs Pairs;
  for (const MatchRecord &M : R.Matches)
    Pairs.insert({G.node(M.SendNode).Loc.Line, G.node(M.RecvNode).Loc.Line});
  return Pairs;
}

const std::set<std::string> &bridgePasses() {
  static const std::set<std::string> Passes = {
      "message-leak", "possible-deadlock", "tag-mismatch",
      "match-nondet", "analysis-top",      "internal-error"};
  return Passes;
}

//===----------------------------------------------------------------------===//
// Requests and references
//===----------------------------------------------------------------------===//

/// What a reply must agree with. None of it comes from the analyzer.
struct Reference {
  enum class Kind { Generated, Kernel, Example };
  Kind K = Kind::Generated;
  /// Generated: the expected match set. Kernel: the interpreter's dynamic
  /// (send line, recv line) pairs at the kernel's np.
  LinePairs Pairs;
  /// Kernel: the preset is known to converge on this kernel.
  bool MustComplete = true;
  /// Example: the committed `csdf lint --format json` golden.
  std::string Golden;
};

struct Request {
  bool Lint = false;
  std::string Path;
  std::string Source;
  api::RequestOptions Options;
  std::size_t Ref = 0;
};

api::AnalyzeRequest analyzeRequest(const Request &R) {
  api::AnalyzeRequest A;
  A.Path = R.Path;
  A.Source = R.Source;
  A.Options = R.Options;
  return A;
}

api::LintRequest lintRequest(const Request &R) {
  api::LintRequest L;
  L.Path = R.Path;
  L.Source = R.Source;
  L.Options = R.Options;
  return L;
}

/// (pass, line, col, message) of one pCFG-bridge finding.
using Finding = std::tuple<std::string, unsigned, unsigned, std::string>;

/// Checks an analyze reply; returns "" when it agrees with \p Ref.
std::string checkAnalyze(const SessionResult &S, const Reference &Ref) {
  if (S.Outcome.internalError() || S.FrontEndErrors || !S.Graph)
    return "no analysis: " + S.Outcome.str() + " " + S.Error;
  const AnalysisResult &A = S.Report.Analysis;
  LinePairs Got = linePairs(*S.Graph, A);
  switch (Ref.K) {
  case Reference::Kind::Generated:
    if (!S.Outcome.complete())
      return "expected complete, got " + S.Outcome.str();
    if (!A.Bugs.empty())
      return "expected no bugs, got " + std::to_string(A.Bugs.size());
    if (Got != Ref.Pairs)
      return "match set differs from the generator's";
    return "";
  case Reference::Kind::Kernel:
    for (const auto &P : Got)
      if (!Ref.Pairs.count(P))
        return "match " + std::to_string(P.first) + "->" +
               std::to_string(P.second) + " never happens at run time";
    if (Ref.MustComplete && !S.Outcome.complete())
      return "expected complete, got " + S.Outcome.str();
    if (S.Outcome.complete() && (Got != Ref.Pairs || !A.Bugs.empty()))
      return "complete but not exact";
    return "";
  case Reference::Kind::Example: {
    std::vector<Finding> Want, Have;
    bool WantTop = false;
    std::istringstream In(Ref.Golden);
    std::string Line;
    while (std::getline(In, Line)) {
      JsonValue V;
      std::string Err;
      if (Line.empty() || !parseJson(Line, V, Err))
        continue;
      const std::string &Pass = V.get("pass")->asString();
      if (Pass == "analysis-top")
        WantTop = true;
      else if (bridgePasses().count(Pass))
        Want.emplace_back(Pass, V.get("line")->asInt(), V.get("col")->asInt(),
                          V.get("message")->asString());
    }
    for (const AnalysisBug &B : A.Bugs)
      Have.emplace_back(analysisBugKindName(B.TheKind), B.Loc.Line, B.Loc.Col,
                        B.Detail);
    std::sort(Want.begin(), Want.end());
    std::sort(Have.begin(), Have.end());
    if (Want != Have)
      return "bug list differs from the golden's bridge findings";
    if (WantTop == S.Outcome.complete())
      return "verdict " + S.Outcome.str() + " disagrees with the golden";
    return "";
  }
  }
  return "";
}

/// Checks a lint reply; returns "" when it agrees with \p Ref.
std::string checkLint(const std::vector<Diagnostic> &Diags,
                      const std::string &Path, const Reference &Ref) {
  if (Ref.K == Reference::Kind::Example)
    return renderDiagsJson(Diags, Path) == Ref.Golden
               ? ""
               : "lint output differs from the golden";
  for (const Diagnostic &D : Diags)
    if (bridgePasses().count(D.Pass))
      return "unexpected " + D.Pass + " finding";
  return "";
}

/// Everything of an analyze reply a caller can see: its JSON verdict
/// \p Json (wall time dropped), the match set and the bug list.
std::string verdictKey(const std::string &Json, const api::AnalyzeResponse &R) {
  std::string Key = stripWallMs(Json);
  if (R.Session.Graph)
    for (const auto &[S, D] : linePairs(*R.Session.Graph,
                                        R.Session.Report.Analysis))
      Key += " " + std::to_string(S) + ">" + std::to_string(D);
  for (const AnalysisBug &B : R.Session.Report.Analysis.Bugs)
    Key += " " + B.Loc.str() + ":" + B.Detail;
  return Key;
}

/// One request through a fresh cold Analyzer, the way the one-shot CLI
/// makes it. \p Us is the request's latency; the returned string is the
/// caller-visible verdict. \p Error is set when the reply disagrees with
/// \p Ref.
std::string runOneShot(const Request &Req, const Reference &Ref, double &Us,
                       std::string &Error) {
  double T0 = nowUs();
  std::optional<api::AnalyzeResponse> A;
  std::optional<api::LintResponse> L;
  {
    api::Analyzer An;
    if (Req.Lint)
      L = An.lint(lintRequest(Req));
    else
      A = An.analyze(analyzeRequest(Req));
  }
  Us = nowUs() - T0;
  if (Req.Lint) {
    Error = checkLint(L->Diagnostics, Req.Path, Ref);
    return renderDiagsJson(L->Diagnostics, Req.Path);
  }
  Error = checkAnalyze(A->Session, Ref);
  return verdictKey(api::verdictJson(Req.Path, *A), *A);
}

//===----------------------------------------------------------------------===//
// Per-layer accounting of the traced run
//===----------------------------------------------------------------------===//

/// Sums and counts per metric; a metric's value is its per-request mean
/// over the requests in which its layer ran.
struct LayerAcc {
  std::map<std::string, double> Sum;
  std::map<std::string, double> Count;
  std::map<std::string, double> Max;

  void add(const std::string &Name, double V) {
    Sum[Name] += V;
    Count[Name] += 1;
  }
  void max(const std::string &Name, double V) {
    Max[Name] = std::max(Max[Name], V);
  }
  double mean(const std::string &Name) const {
    auto It = Count.find(Name);
    return It == Count.end() || It->second == 0 ? 0
                                                : Sum.at(Name) / It->second;
  }
  double sum(const std::string &Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? 0 : It->second;
  }
  double ratio(const std::string &Num, const std::string &Den) const {
    double D = sum(Den);
    return D == 0 ? 0 : sum(Num) / D;
  }
};

/// analyzeProgram under a private StatsRegistry and \p Budget (unlimited),
/// inside a "pcfg.engine" span. Closure time is read from the registry;
/// the engine's self time is the span minus it.
AnalysisResult runEngine(const Cfg &G, AnalysisOptions Opts,
                         AnalysisBudget &Budget, Tracer &T, int Root,
                         LayerAcc &A) {
  StatsRegistry Stats;
  Budget.begin();
  Opts.Budget = &Budget;
  BudgetScope Scope(&Budget);
  int E = T.begin("pcfg.engine", Root);
  AnalysisResult R = analyzeProgram(G, Opts, &Stats);
  T.end(E);
  double ClosureUs = Stats.seconds("cg.closure.seconds") * 1e6;
  A.add("pcfg.engine_self_us", T[E].us() - ClosureUs);
  A.add("numeric.closure_us", ClosureUs);
  A.add("pcfg.states_explored", R.StatesExplored);
  A.add("pcfg.configs_visited", R.ConfigsVisited);
  A.add("pcfg.max_sets", R.MaxSetsSeen);
  A.add("engine.runs", 1);
  A.add("engine.converged", R.Converged ? 1 : 0);
  A.add("hsm.prover_steps", static_cast<double>(Budget.proverStepsUsed()));
  A.max("numeric.peak_dbm_bytes", static_cast<double>(Budget.peakBytes()));
  for (const char *C :
       {"cg.closure.full.calls", "cg.closure.incr.calls",
        "cg.closure.full.varsum", "cg.closure.incr.varsum",
        "cg.closure.memo.hits", "cg.closure.memo.misses", "cg.cow.copies",
        "cg.cow.detaches"})
    A.add(C, static_cast<double>(Stats.counter(C)));
  return R;
}

/// An analyze request split at the layer entry points, in pipeline order.
/// Returns the same verdict key runOneShot gives.
std::string tracedAnalyze(const Request &Req, Tracer &T, int Root,
                          LayerAcc &A) {
  T.span("api.analyzer_setup", Root, [] {
    api::Analyzer An;
    return 0;
  });
  AnalysisBudget Budget;
  api::AnalyzeResponse Resp;
  Resp.OptionsFingerprint = Req.Options.fingerprint();
  SessionResult &S = Resp.Session;
  A.add("lang.source_bytes", static_cast<double>(Req.Source.size()));
  S.Parsed = T.span("lang.parse", Root, [&] {
    return std::make_shared<ParseResult>(parseProgram(Req.Source));
  });
  auto FrontEndFailed = [&](const std::string &Msg) {
    S.FrontEndErrors = true;
    S.Error = Msg;
    S.ExitCode = SessionExitFindings;
    return verdictKey(T.span("api.render", Root,
                             [&] { return api::verdictJson(Req.Path, Resp); }),
                      Resp);
  };
  if (!S.Parsed->succeeded()) {
    std::string Msg;
    for (const ParseDiagnostic &D : S.Parsed->Diagnostics)
      Msg += Req.Path + ": " + D.str() + "\n";
    return FrontEndFailed(Msg);
  }
  SemaResult Sema =
      T.span("lang.sema", Root, [&] { return checkProgram(S.Parsed->Prog); });
  if (Sema.hasErrors()) {
    std::string Msg;
    for (const SemaDiagnostic &D : Sema.Diagnostics)
      Msg += Req.Path + ": " + D.str() + "\n";
    return FrontEndFailed(Msg);
  }
  S.Graph = T.span("cfg.build", Root, [&] {
    return std::make_shared<Cfg>(buildCfg(S.Parsed->Prog));
  });
  A.add("cfg.nodes", static_cast<double>(S.Graph->size()));
  S.Report.Analysis =
      runEngine(*S.Graph, Req.Options.analysis(), Budget, T, Root, A);
  S.Report.Patterns = T.span("topology.classify", Root, [&] {
    return classifyMatches(*S.Graph, S.Report.Analysis);
  });
  T.span("analysis.clients", Root, [&] {
    S.Report.Suggestions = suggestCollectives(S.Report.Patterns);
    S.Report.ShareableConstants = findShareableConstants(S.Report.Analysis);
    return 0;
  });
  S.Outcome = S.Report.Analysis.Outcome;
  if (S.Outcome.internalError())
    S.ExitCode = SessionExitInternal;
  else if (!S.Outcome.complete() || !S.Report.Analysis.Bugs.empty())
    S.ExitCode = SessionExitFindings;
  else
    S.ExitCode = SessionExitComplete;
  return verdictKey(T.span("api.render", Root,
                           [&] { return api::verdictJson(Req.Path, Resp); }),
                    Resp);
}

/// A lint request split the same way: front end, the engine run the
/// pCFG bridge needs, the lint passes with the bridge disabled, then the
/// bridge findings mapped from the engine result as lintPcfgBridge does.
std::string tracedLint(const Request &Req, Tracer &T, int Root, LayerAcc &A) {
  T.span("api.analyzer_setup", Root, [] {
    api::Analyzer An;
    return 0;
  });
  AnalysisBudget Budget;
  LintOptions Opts;
  Opts.Analysis = Req.Options.analysis();
  DiagnosticEngine Diags;
  A.add("lang.source_bytes", static_cast<double>(Req.Source.size()));
  auto Render = [&] {
    A.add("analysis.diagnostics",
          static_cast<double>(Diags.diagnostics().size()));
    return T.span("api.render", Root, [&] {
      return renderDiagsJson(Diags.diagnostics(), Req.Path);
    });
  };
  auto Parsed = T.span("lang.parse", Root, [&] {
    return std::make_shared<ParseResult>(parseProgram(Req.Source));
  });
  if (!Parsed->succeeded()) {
    for (const ParseDiagnostic &D : Parsed->Diagnostics)
      Diags.report(makeDiag("parse", DiagSeverity::Error, D.Loc, D.Message));
    return Render();
  }
  SemaResult Sema =
      T.span("lang.sema", Root, [&] { return checkProgram(Parsed->Prog); });
  for (const SemaDiagnostic &D : Sema.Diagnostics)
    Diags.report(makeDiag("sema",
                          D.isError() ? DiagSeverity::Error
                                      : DiagSeverity::Warning,
                          D.Loc, D.Message));
  if (Sema.hasErrors())
    return Render();
  auto Graph = T.span("cfg.build", Root, [&] {
    return std::make_shared<Cfg>(buildCfg(Parsed->Prog));
  });
  A.add("cfg.nodes", static_cast<double>(Graph->size()));
  AnalysisResult R = runEngine(*Graph, Opts.Analysis, Budget, T, Root, A);
  T.span("analysis.lint_passes", Root, [&] {
    LintOptions NoBridge = Opts;
    for (const std::string &P : bridgePasses())
      NoBridge.Disabled.insert(P);
    runLintPasses(*Graph, NoBridge, Diags);
    if (R.Outcome.internalError()) {
      Diags.report(makeDiag(
          "internal-error", DiagSeverity::Error, SourceLoc(),
          "pCFG analysis failed with an internal error: " + R.Outcome.Reason,
          R.Outcome.Configuration.empty()
              ? "please report this; analysis results were discarded"
              : "at configuration " + R.Outcome.Configuration +
                    "; please report this"));
      return 0;
    }
    for (const AnalysisBug &B : R.Bugs)
      Diags.report(makeDiag(analysisBugKindName(B.TheKind),
                            DiagSeverity::Warning, B.Loc, B.Detail,
                            "reported by the pCFG dataflow analysis"));
    if (!R.Converged)
      Diags.report(makeDiag("analysis-top", DiagSeverity::Note, SourceLoc(),
                            "pCFG analysis gave up (Top): " + R.TopReason,
                            "bug candidates and the topology may be "
                            "incomplete"));
    return 0;
  });
  return Render();
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct BenchResult {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Failures;

  void fail(const std::string &What) {
    ++Failed;
    if (Failures.size() < 10)
      Failures.push_back(What);
  }
};

/// Closed-loop latencies of a run. A run repeats one fixed pass of
/// requests; each request's latency is its fastest repeat. Other tenants
/// of the host slow single requests by up to 1.6x, at random, and that
/// share changes from minute to minute; the fastest of many repeats spread
/// over the run is what stays put between runs.
struct LatencyRun {
  explicit LatencyRun(std::size_t PassSize) : BestUs(PassSize, HUGE_VAL) {}

  /// Fastest time of each request of the pass, in microseconds.
  std::vector<double> BestUs;
  /// Time spent in requests, all passes together.
  double BusyUs = 0;

  void record(std::size_t I, double Us) {
    BestUs[I] = std::min(BestUs[I], Us);
    BusyUs += Us;
  }
};

/// Spreads a run's set-ups over its timed part, so setup_s meets the same
/// host conditions as the requests do: one set-up before timing starts,
/// then one each time another 1/SetupRepeats of the time has passed.
struct SetupSampler {
  /// One set-up; returns its wall time in seconds.
  std::function<double()> SetUp;
  std::vector<double> Times;

  void poll(double BusyUs, double Seconds) {
    if (Times.size() < SetupRepeats &&
        BusyUs >= Seconds * 1e6 * Times.size() / SetupRepeats)
      Times.push_back(SetUp());
  }
};

/// The end-to-end metrics. Percentiles are over the requests of one pass;
/// requests_per_s is one pass's requests over the sum of their times.
void endToEnd(BenchResult &Out, const LatencyRun &L, double TailQ,
              const std::vector<double> &SetupTimes) {
  double PassUs = 0;
  for (double Us : L.BestUs)
    PassUs += Us;
  Out.Metrics.push_back(
      {"latency_p50_ms", percentile(L.BestUs, 0.5) / 1e3, "ms"});
  Out.Metrics.push_back(
      {"latency_tail_ms", percentile(L.BestUs, TailQ) / 1e3, "ms"});
  Out.Metrics.push_back(
      {"requests_per_s", static_cast<double>(L.BestUs.size()) / (PassUs / 1e6),
       "1/s"});
  Out.Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  Out.Metrics.push_back({"setup_s", percentile(SetupTimes, 0.5), "s"});
}

//===----------------------------------------------------------------------===//
// One-shot workloads: kernels_oneshot and phases_cold
//===----------------------------------------------------------------------===//

struct KernelSpec {
  const char *Name;
  int Np;
  std::map<std::string, std::int64_t> Params;
  /// Presets known to converge exactly at this np: l(inear), c(artesian),
  /// s(ectionx). Others may give Top, but never a wrong match.
  const char *Converges;
};

const std::vector<KernelSpec> &kernelSpecs() {
  static const std::vector<KernelSpec> Specs = {
      {"figure2-exchange", 8, {}, "lcs"},
      {"gather-to-root", 8, {}, "ls"},
      {"fan-out-broadcast", 8, {}, "lcs"},
      {"exchange-with-root", 8, {}, "lcs"},
      {"transpose-square", 9, {{"nrows", 3}}, "cs"},
      {"transpose-rect", 8, {{"nrows", 2}, {"ncols", 4}}, "cs"},
      {"nascg-transpose", 8, {{"nrows", 2}, {"ncols", 4}}, "cs"},
      {"neighbor-shift", 8, {}, "lcs"},
      {"neighbor-shift-left", 8, {}, "lcs"},
      {"neighbor-exchange-1d", 8, {}, "lcs"},
      {"pairwise-exchange", 8, {{"half", 4}}, ""},
      {"vshift-2d", 8, {{"nrows", 4}, {"ncols", 2}}, "lcs"},
      {"broadcast-then-gather", 8, {}, "lcs"},
      {"no-comm", 8, {}, "lcs"},
      {"nonblocking-ping", 8, {}, "lcs"},
      {"isend-fanout", 8, {}, "lcs"},
      {"wildcard-unique-sender", 8, {}, "lcs"},
  };
  return Specs;
}

/// The interpreter's (send line, recv line) pairs for \p Source.
LinePairs dynamicPairs(const std::string &Source, int Np,
                       const std::map<std::string, std::int64_t> &Params,
                       Scheduler &Sched, bool &Finished) {
  Program P = parseProgramOrDie(Source);
  Cfg G = buildCfg(P);
  RunOptions Opts;
  Opts.NumProcs = Np;
  Opts.Params = Params;
  csdf::RunResult Run = runProgram(G, Opts, Sched);
  Finished = Run.finished();
  LinePairs Pairs;
  for (const TraceEvent &E : Run.Trace)
    Pairs.insert({G.node(E.SendNode).Loc.Line, G.node(E.RecvNode).Loc.Line});
  return Pairs;
}

/// A one-shot workload: a request list, its references, and the warm-up
/// list the set-up pass runs. Requests from First on make up the pass.
struct OneShotWorkload {
  std::vector<Request> Requests;
  std::vector<Reference> Refs;
  std::vector<std::size_t> WarmUp;
  std::size_t First = 0;
  /// The highest percentile with at least ten of the pass's requests
  /// beyond it.
  double TailQ = 0.9;
};

OneShotWorkload kernelsWorkload(const fs::path &Repo, Rng &R,
                                std::string &Error) {
  OneShotWorkload W;
  std::map<std::string, std::string> Sources;
  for (const corpus::NamedProgram &P : corpus::allPatterns())
    Sources[P.Name] = P.Source;
  const char *Presets[] = {"linear", "cartesian", "sectionx"};
  for (const KernelSpec &K : kernelSpecs()) {
    RoundRobinScheduler Sched;
    bool Finished = false;
    Reference Base;
    Base.K = Reference::Kind::Kernel;
    Base.Pairs =
        dynamicPairs(Sources.at(K.Name), K.Np, K.Params, Sched, Finished);
    if (!Finished) {
      Error = std::string("interpreter did not finish ") + K.Name;
      return W;
    }
    for (const char *Preset : Presets) {
      Reference Ref = Base;
      Ref.MustComplete = std::string(K.Converges).find(Preset[0]) !=
                         std::string::npos;
      W.Refs.push_back(Ref);
      Request Req;
      Req.Path = std::string(K.Name) + ".mpl";
      Req.Source = Sources.at(K.Name);
      Req.Options.Client = Preset;
      Req.Options.FixedNp = K.Np;
      Req.Options.Params = K.Params;
      Req.Ref = W.Refs.size() - 1;
      W.Requests.push_back(Req);
      if (Ref.MustComplete) {
        Req.Lint = true;
        W.Requests.push_back(Req);
      }
    }
  }
  // The example programs have committed goldens for the default
  // (cartesian, symbolic np) options only.
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E :
       fs::directory_iterator(Repo / "examples" / "mpl"))
    if (E.path().extension() == ".mpl" &&
        E.path().filename() != "stress_phases.mpl")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &F : Files) {
    fs::path Golden = Repo / "tests" / "lint" / "golden" / F.stem();
    Golden += ".json";
    if (!fs::exists(Golden)) {
      Error = "no golden for " + F.filename().string();
      return W;
    }
    Reference Ref;
    Ref.K = Reference::Kind::Example;
    Ref.Golden = readFile(Golden);
    W.Refs.push_back(Ref);
    Request Req;
    Req.Path = F.filename().string();
    Req.Source = readFile(F);
    Req.Ref = W.Refs.size() - 1;
    W.Requests.push_back(Req);
    Req.Lint = true;
    W.Requests.push_back(Req);
  }
  R.shuffle(W.Requests);
  for (std::size_t I = 0; I < W.Requests.size(); ++I)
    W.WarmUp.push_back(I);
  return W;
}

/// Phase counts of one phases_cold round. The grid programs (transposes
/// only, so every match goes through the HSM prover) sit in the middle of
/// the latency range and set the median; the largest programs set the
/// tail; the small ones show how cost grows with phases.
const std::vector<std::pair<ProgramClass, unsigned>> &phasesRound() {
  static const std::vector<std::pair<ProgramClass, unsigned>> Round = {
      {ProgramClass::Scatter, 8},      {ProgramClass::Scatter, 12},
      {ProgramClass::Scatter, 20},     {ProgramClass::Scatter, 20},
      {ProgramClass::GridSquare, 192}, {ProgramClass::GridSquare, 256},
      {ProgramClass::GridSquare, 320}, {ProgramClass::GridRect, 96},
      {ProgramClass::GridRect, 128},
  };
  return Round;
}

void addGenerated(OneShotWorkload &W, const GeneratedProgram &G,
                  const std::string &Path) {
  Reference Ref;
  Ref.Pairs = G.Expected;
  W.Refs.push_back(Ref);
  Request Req;
  Req.Path = Path;
  Req.Source = G.Source;
  Req.Options.Client = "cartesian";
  Req.Options.FixedNp = G.FixedNp;
  Req.Ref = W.Refs.size() - 1;
  W.Requests.push_back(Req);
}

/// One round per rotation of the scatter cycle. Each entry of the round
/// deals its rotations from a deck of its own, so every scatter shape comes
/// once in each rotation and the pass costs the same under every seed.
OneShotWorkload phasesWorkload(Rng &R) {
  OneShotWorkload W;
  // 54 requests per pass.
  W.TailQ = 0.8;
  // Warm-up: one small program of each class (not part of the timed list).
  addGenerated(W, render(randomSpec(R, ProgramClass::Scatter, 8, 0)),
               "warmup-scatter.mpl");
  addGenerated(W, render(randomSpec(R, ProgramClass::GridSquare, 64, 0)),
               "warmup-square.mpl");
  addGenerated(W, render(randomSpec(R, ProgramClass::GridRect, 32, 0)),
               "warmup-rect.mpl");
  std::vector<unsigned> Rotations = rotations(ProgramClass::Scatter);
  std::vector<Deck> RotationOf(phasesRound().size(), Deck(Rotations));
  OneShotWorkload Timed;
  for (std::size_t Round = 0; Round < Rotations.size(); ++Round) {
    std::vector<std::size_t> Order(phasesRound().size());
    for (std::size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
    for (std::size_t I : Order) {
      const auto &[Class, Phases] = phasesRound()[I];
      addGenerated(Timed,
                   render(randomSpec(R, Class, Phases, RotationOf[I].deal(R))),
                   "phases-" + std::to_string(Timed.Requests.size()) +
                       ".mpl");
    }
  }
  W.WarmUp = {0, 1, 2};
  // Timed requests follow the warm-up ones.
  W.First = W.Requests.size();
  for (Request &Req : Timed.Requests) {
    Req.Ref += W.Refs.size();
    W.Requests.push_back(std::move(Req));
  }
  W.Refs.insert(W.Refs.end(), Timed.Refs.begin(), Timed.Refs.end());
  return W;
}

/// Runs passes over the requests in a closed loop until \p Seconds of
/// request time have passed, checking each reply.
LatencyRun closedLoop(const OneShotWorkload &W, double Seconds,
                      BenchResult &Out, SetupSampler &Setups) {
  LatencyRun L(W.Requests.size() - W.First);
  while (L.BusyUs < Seconds * 1e6) {
    nextCpu(L.BusyUs);
    for (std::size_t I = W.First; I < W.Requests.size(); ++I) {
      Setups.poll(L.BusyUs, Seconds);
      const Request &Req = W.Requests[I];
      double Us = 0;
      std::string Error;
      runOneShot(Req, W.Refs[Req.Ref], Us, Error);
      ++Out.Attempted;
      if (!Error.empty())
        Out.fail(Req.Path + " (" + Req.Options.Client +
                 (Req.Lint ? ", lint" : ", analyze") + "): " + Error);
      L.record(I - W.First, Us);
    }
  }
  return L;
}

/// One set-up pass: the warm-up requests. Returns its wall time in
/// seconds.
double warmUpPass(const OneShotWorkload &W, BenchResult &Out) {
  double T0 = nowUs();
  for (std::size_t I : W.WarmUp) {
    const Request &Req = W.Requests[I];
    double Us = 0;
    std::string Error;
    runOneShot(Req, W.Refs[Req.Ref], Us, Error);
    if (!Error.empty())
      Out.fail("warm-up " + Req.Path + ": " + Error);
  }
  return (nowUs() - T0) / 1e6;
}

void oneShotLayerMetrics(BenchResult &Out, const LayerAcc &A, const Tracer &T,
                         double Requests) {
  std::map<std::string, double> Self = T.selfTimes();
  auto PerReq = [&](const std::string &Span) {
    return Requests ? Self[Span] / Requests : 0;
  };
  double RequestUs = 0, LayerUs = 0;
  for (const Span &S : T.spans())
    (S.Parent < 0 ? RequestUs : LayerUs) += S.us();
  double ClosureCalls =
      A.sum("cg.closure.full.calls") + A.sum("cg.closure.incr.calls");
  double VarSum =
      A.sum("cg.closure.full.varsum") + A.sum("cg.closure.incr.varsum");
  std::vector<Metric> M = {
      {"api.analyzer_setup_us", PerReq("api.analyzer_setup"), "us"},
      {"lang.parse_us", PerReq("lang.parse"), "us"},
      {"lang.sema_us", PerReq("lang.sema"), "us"},
      {"lang.source_bytes", A.mean("lang.source_bytes"), "bytes"},
      {"cfg.build_us", PerReq("cfg.build"), "us"},
      {"cfg.nodes", A.mean("cfg.nodes"), "count"},
      {"pcfg.engine_self_us",
       Requests ? A.sum("pcfg.engine_self_us") / Requests : 0, "us"},
      {"pcfg.states_explored", A.mean("pcfg.states_explored"), "count"},
      {"pcfg.configs_visited", A.mean("pcfg.configs_visited"), "count"},
      {"pcfg.max_sets", A.mean("pcfg.max_sets"), "count"},
      {"pcfg.converged_ratio", A.ratio("engine.converged", "engine.runs"),
       "ratio"},
      {"hsm.prover_steps", A.mean("hsm.prover_steps"), "count"},
      {"numeric.closure_us",
       Requests ? A.sum("numeric.closure_us") / Requests : 0, "us"},
      {"numeric.closure_full_calls", A.mean("cg.closure.full.calls"), "count"},
      {"numeric.closure_incr_calls", A.mean("cg.closure.incr.calls"), "count"},
      {"numeric.closure_avg_vars", ClosureCalls ? VarSum / ClosureCalls : 0,
       "count"},
      {"numeric.memo_hit_ratio",
       A.sum("cg.closure.memo.hits") + A.sum("cg.closure.memo.misses") > 0
           ? A.sum("cg.closure.memo.hits") /
                 (A.sum("cg.closure.memo.hits") +
                  A.sum("cg.closure.memo.misses"))
           : 0,
       "ratio"},
      {"numeric.cow_copies", A.mean("cg.cow.copies"), "count"},
      {"numeric.cow_detach_ratio",
       A.ratio("cg.cow.detaches", "cg.cow.copies"), "ratio"},
      {"numeric.peak_dbm_bytes",
       A.Max.count("numeric.peak_dbm_bytes")
           ? A.Max.at("numeric.peak_dbm_bytes")
           : 0,
       "bytes"},
      {"topology.classify_us", PerReq("topology.classify"), "us"},
      {"analysis.clients_us", PerReq("analysis.clients"), "us"},
      {"analysis.lint_passes_us", PerReq("analysis.lint_passes"), "us"},
      {"analysis.diagnostics", A.mean("analysis.diagnostics"), "count"},
      {"api.render_us", PerReq("api.render"), "us"},
      {"trace.unattributed_share",
       RequestUs > 0 ? 1 - LayerUs / RequestUs : 0, "share"},
  };
  Out.Metrics.insert(Out.Metrics.end(), M.begin(), M.end());
}

/// Traced passes over the same requests; every traced verdict must equal
/// the untraced one for the same request.
LatencyRun oneShotTraced(const OneShotWorkload &W, double Seconds,
                         BenchResult &Out, Tracer &T) {
  LayerAcc A;
  LatencyRun L(W.Requests.size() - W.First);
  std::uint64_t Id = 0;
  while (L.BusyUs < Seconds * 1e6) {
    nextCpu(L.BusyUs);
    for (std::size_t I = W.First; I < W.Requests.size(); ++I) {
      const Request &Req = W.Requests[I];
      int Root = T.beginRequest(Id++);
      std::string Traced = Req.Lint ? tracedLint(Req, T, Root, A)
                                    : tracedAnalyze(Req, T, Root, A);
      T.end(Root);
      L.record(I - W.First, T[Root].us());
      double Us = 0;
      std::string Error;
      std::string Plain = runOneShot(Req, W.Refs[Req.Ref], Us, Error);
      ++Out.Attempted;
      if (!Error.empty())
        Out.fail(Req.Path + ": " + Error);
      else if (Traced != Plain)
        Out.fail(Req.Path + ": traced decomposition disagrees with "
                            "api::Analyzer");
    }
  }
  oneShotLayerMetrics(Out, A, T, static_cast<double>(Id));
  return L;
}

//===----------------------------------------------------------------------===//
// serve_edit
//===----------------------------------------------------------------------===//

struct ServeInput {
  std::string Line;
  std::size_t Ref = 0;
};

/// A distinct (kind, path, source) the serve workload sends, with the
/// reply payload a cold one-shot run gives for it.
struct ServeRef {
  bool Lint = false;
  std::string Path;
  GeneratedProgram Prog;
  std::string Payload; // Filled by the reference pass.
};

/// The seeded serve request stream: 60% exact repeats, 30% single-literal
/// edits of a program already sent, 10% first sight. Every choice that
/// changes how much work the stream makes is dealt from a Deck, so the
/// seed moves the order and the literals but hardly the cost.
class ServeStream {
public:
  explicit ServeStream(std::uint64_t Seed) : R(Seed) {}

  std::vector<ServeRef> Refs;

  /// The set-up's lines: one mid-sized document of each class, sent, then
  /// edited in its last procedure, then sent again unchanged.
  std::vector<ServeInput> warmUp() {
    std::vector<ServeInput> Lines;
    for (ProgramClass C : {ProgramClass::Scatter, ProgramClass::GridSquare,
                           ProgramClass::GridRect}) {
      Doc &D = addDoc(randomSpec(R, C, C == ProgramClass::Scatter ? 4 : 10, 0),
                      /*Lint=*/false);
      Lines.push_back(send(D));
      D.Spec = editLiteral(D.Spec,
                           static_cast<unsigned>(D.Spec.Phases.size() - 1), R);
      Lines.push_back(send(D));
      Lines.push_back(repeat(History.size() - 1));
    }
    return Lines;
  }

  ServeInput next() {
    unsigned Kind = Kinds.deal(R);
    if (Docs.empty() || Kind == NewDoc)
      return send(newDoc());
    if (Kind == Edit) {
      // Edit a recently active document. Most edits land in its last
      // procedure (long adoption window), one in five in the first
      // (closed).
      Doc &D = Docs[Docs.size() - 1 - R.below(std::min<std::size_t>(
                                           8, Docs.size()))];
      unsigned Phase = EditFirst.deal(R)
                           ? 0
                           : static_cast<unsigned>(D.Spec.Phases.size() - 1);
      D.Spec = editLiteral(D.Spec, Phase, R);
      return send(D);
    }
    // Repeat: half from the recent past (memory tier), half from the
    // whole history (mostly the disk tier).
    return repeat(RepeatRecent.deal(R)
                      ? History.size() - 1 -
                            R.below(std::min<std::size_t>(12, History.size()))
                      : R.below(History.size()));
  }

private:
  struct Doc {
    std::string Path;
    ProgramSpec Spec;
    bool Lint = false;
  };

  enum : unsigned { NewDoc, Edit, Repeat };

  Doc &addDoc(ProgramSpec Spec, bool Lint) {
    Docs.push_back({"doc" + std::to_string(Docs.size()) + ".mpl",
                    std::move(Spec), Lint});
    return Docs.back();
  }

  Doc &newDoc() {
    auto C = static_cast<ProgramClass>(Classes.deal(R));
    unsigned Phases = C == ProgramClass::Scatter ? ScatterPhases.deal(R)
                                                 : GridPhases.deal(R);
    return addDoc(randomSpec(R, C, Phases, Rotations.deal(R)),
                  LintDoc.deal(R));
  }

  ServeInput repeat(std::size_t Pick) {
    ServeInput In;
    In.Ref = History[Pick];
    In.Line = line(Refs[In.Ref]);
    return In;
  }

  ServeInput send(const Doc &D) {
    ServeRef Ref;
    Ref.Lint = D.Lint;
    Ref.Path = D.Path;
    Ref.Prog = render(D.Spec);
    std::string Key = (D.Lint ? "L" : "A") + D.Path + "\n" + Ref.Prog.Source;
    auto [It, New] = Index.try_emplace(Key, Refs.size());
    if (New)
      Refs.push_back(std::move(Ref));
    ServeInput In;
    In.Ref = It->second;
    In.Line = line(Refs[In.Ref]);
    History.push_back(In.Ref);
    return In;
  }

  std::string line(const ServeRef &Ref) {
    api::WireRequest W;
    W.IdJson = std::to_string(++Ids);
    W.Type = Ref.Lint ? "lint" : "analyze";
    W.Path = Ref.Path;
    W.Source = Ref.Prog.Source;
    W.Options.FixedNp = Ref.Prog.FixedNp;
    return api::wireRequestJson(W, /*IncludeOptions=*/true);
  }

  Rng R;
  Deck Kinds{{NewDoc, Edit, Edit, Edit, Repeat, Repeat, Repeat, Repeat,
              Repeat, Repeat}};
  Deck EditFirst{{1, 0, 0, 0, 0}};
  Deck RepeatRecent{{1, 0}};
  Deck LintDoc{{1, 0, 0, 0}};
  Deck Classes{{static_cast<unsigned>(ProgramClass::Scatter),
                static_cast<unsigned>(ProgramClass::GridSquare),
                static_cast<unsigned>(ProgramClass::GridRect)}};
  Deck ScatterPhases{{2, 3, 4, 5}};
  Deck GridPhases{{6, 7, 8, 9, 10, 11, 12, 13, 14, 15}};
  Deck Rotations{rotations(ProgramClass::Scatter)};
  std::vector<Doc> Docs;
  /// Reference index of every input sent so far.
  std::vector<std::size_t> History;
  std::unordered_map<std::string, std::size_t> Index;
  std::uint64_t Ids = 0;
};

/// Cold one-shot reference for every distinct input, checked against the
/// generator.
void serveReferences(ServeStream &S, BenchResult &Out) {
  for (ServeRef &Ref : S.Refs) {
    Request Req;
    Req.Lint = Ref.Lint;
    Req.Path = Ref.Path;
    Req.Source = Ref.Prog.Source;
    Req.Options.FixedNp = Ref.Prog.FixedNp;
    Reference Want;
    Want.Pairs = Ref.Prog.Expected;
    api::Analyzer An;
    std::string Error;
    if (Ref.Lint) {
      api::LintResponse L = An.lint(lintRequest(Req));
      Error = checkLint(L.Diagnostics, Req.Path, Want);
      Ref.Payload = lintPayload(L.Diagnostics, Req.Path, L.ExitCode);
    } else {
      api::AnalyzeResponse A = An.analyze(analyzeRequest(Req));
      Error = checkAnalyze(A.Session, Want);
      Ref.Payload = stripWallMs(api::verdictJson(Req.Path, A));
    }
    if (!Error.empty())
      Out.fail("reference " + Ref.Path + ": " + Error);
  }
}

/// The "result" payload and answering tier of a serve response line.
bool decodeReply(const std::string &Line, std::string &Payload,
                 std::string &Tier) {
  std::size_t At = Line.find("\"result\":");
  std::size_t End = Line.rfind(",\"wall_us\":");
  if (At == std::string::npos || End == std::string::npos || End < At)
    return false;
  Payload = Line.substr(At + 9, End - At - 9);
  std::size_t T = Line.find("\"tier\":\"");
  Tier = Line.find("\"cached\":false") != std::string::npos ? "miss"
         : T == std::string::npos
             ? "?"
             : Line.substr(T + 8, Line.find('"', T + 8) - T - 8);
  return true;
}

/// What one serve replay measured besides request times.
struct Replay {
  /// Building the server, opening its store and the warm-up lines.
  double SetupS = 0;
  /// Server statistics before and after the pass lines.
  ServeStats Before, After;
};

/// One seeded stream of warm-up and pass lines, replayed on a fresh server
/// over a fresh store as often as the run's time allows. A server's
/// replies depend only on the lines it has been sent, so every replay does
/// the same work.
class ServeWorkload {
public:
  static constexpr std::size_t PassRequests = 1000;
  /// p99 leaves 10 of the pass's requests beyond it.
  static constexpr double TailQ = 0.99;

  /// Makes the stream and the cold one-shot reference of every distinct
  /// input in it.
  ServeWorkload(std::uint64_t Seed, fs::path WorkDir, BenchResult &Out)
      : Stream(Seed), WorkDir(std::move(WorkDir)) {
    Lines = Stream.warmUp();
    WarmUpLines = Lines.size();
    for (std::size_t I = 0; I < PassRequests; ++I)
      Lines.push_back(Stream.next());
    serveReferences(Stream, Out);
  }

  /// Builds a server over a fresh store, sends it the warm-up lines, then
  /// times each pass line into \p L, checking every reply.
  Replay replay(LatencyRun &L, BenchResult &Out, Tracer *T) {
    Replay R;
    nextCpu(L.BusyUs);
    fs::path Dir = WorkDir / ("store-" + std::to_string(Replays++));
    double T0 = nowUs();
    ServeOptions Opts;
    Opts.CacheCapacity = 24;
    Opts.StoreDir = Dir.string();
    auto Server = std::make_unique<ServeServer>(Opts);
    bool Shutdown = false;
    for (std::size_t I = 0; I < WarmUpLines; ++I)
      Server->handleLine(Lines[I].Line, Shutdown);
    R.SetupS = (nowUs() - T0) / 1e6;
    if (!Server->storeError().empty())
      Out.fail("store: " + Server->storeError());
    R.Before = Server->stats();
    for (std::size_t I = WarmUpLines; I < Lines.size(); ++I) {
      const ServeInput &In = Lines[I];
      std::string Reply;
      double Us;
      if (T) {
        // The wire layer's entry point, timed on its own before the
        // request: handleLine decodes the line again inside.
        T->span("api.wire_decode", -1, [&] {
          api::WireRequest Req;
          std::string Err;
          return api::parseWireRequest(In.Line, 8ull << 20,
                                       api::RequestOptions(), Req, Err);
        });
        int Root = T->beginRequest(Sent);
        int H = T->begin("driver.handle_line", Root);
        Reply = Server->handleLine(In.Line, Shutdown);
        T->end(H);
        T->end(Root);
        Us = (*T)[Root].us();
        std::string Payload;
        decodeReply(Reply, Payload, (*T)[H].Label);
      } else {
        double T0 = nowUs();
        Reply = Server->handleLine(In.Line, Shutdown);
        Us = nowUs() - T0;
      }
      ++Sent;
      L.record(I - WarmUpLines, Us);
      ++Out.Attempted;
      std::string Payload, Tier;
      if (!decodeReply(Reply, Payload, Tier))
        Out.fail("serve error: " + Reply.substr(0, 200));
      else if (stripWallMs(Payload) != Stream.Refs[In.Ref].Payload)
        Out.fail("serve result for " + Stream.Refs[In.Ref].Path +
                 " differs from the cold one-shot");
    }
    R.After = Server->stats();
    Server.reset();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    return R;
  }

private:
  ServeStream Stream;
  fs::path WorkDir;
  /// The set-up's lines, then the pass's.
  std::vector<ServeInput> Lines;
  std::size_t WarmUpLines = 0;
  unsigned Replays = 0;
  std::uint64_t Sent = 0;
};

void serveLayerMetrics(BenchResult &Out, const Tracer &T, const ServeStats &A,
                       const ServeStats &B, double ApiSetupUs) {
  std::map<std::string, std::pair<double, double>> Tier; // sum, count
  double Decode = 0, Requests = 0, RequestUs = 0, LayerUs = 0;
  for (const Span &S : T.spans()) {
    if (S.Name == "api.wire_decode") {
      Decode += S.us();
    } else if (S.Parent < 0) {
      ++Requests;
      RequestUs += S.us();
    } else {
      LayerUs += S.us();
      Tier[S.Label].first += S.us();
      Tier[S.Label].second += 1;
    }
  }
  auto TierUs = [&](const std::string &Name) {
    auto It = Tier.find(Name);
    return It == Tier.end() ? 0 : It->second.first / It->second.second;
  };
  auto TierShare = [&](const std::string &Name) {
    auto It = Tier.find(Name);
    return It == Tier.end() || Requests == 0 ? 0
                                             : It->second.second / Requests;
  };
  auto D = [&](std::uint64_t ServeStats::*F) {
    return static_cast<double>(B.*F - A.*F);
  };
  double Adopted = D(&ServeStats::AdoptedSteps), Live = D(&ServeStats::LiveSteps);
  std::vector<Metric> M = {
      {"api.analyzer_setup_us", ApiSetupUs, "us"},
      {"api.wire_decode_us", Requests ? Decode / Requests : 0, "us"},
      {"pipeline.adopted_step_ratio",
       Adopted + Live > 0 ? Adopted / (Adopted + Live) : 0, "ratio"},
      {"pipeline.seeded_runs", D(&ServeStats::SeededRuns), "count"},
      {"pipeline.cold_runs", D(&ServeStats::ColdRuns), "count"},
      {"serve.hit_memory_us", TierUs("memory"), "us"},
      {"serve.hit_disk_us", TierUs("disk"), "us"},
      {"serve.miss_us", TierUs("miss"), "us"},
      {"serve.memory_hit_ratio", TierShare("memory"), "ratio"},
      {"serve.disk_hit_ratio", TierShare("disk"), "ratio"},
      {"serve.memo_entries", static_cast<double>(B.MemoEntries), "count"},
      {"store.writes", D(&ServeStats::DiskWrites), "count"},
      {"store.write_failures", D(&ServeStats::DiskWriteFailures), "count"},
      {"store.evictions", D(&ServeStats::DiskEvictions), "count"},
      {"trace.unattributed_share",
       RequestUs > 0 ? 1 - LayerUs / RequestUs : 0, "share"},
  };
  Out.Metrics.insert(Out.Metrics.end(), M.begin(), M.end());
}

//===----------------------------------------------------------------------===//
// Self-test of the generator
//===----------------------------------------------------------------------===//

/// Every generated program parses and checks, and under two schedulers at
/// a concrete np no dynamic match falls outside the expected set.
int selfTest(std::uint64_t Seed) {
  Rng R(Seed);
  std::vector<GeneratedProgram> Progs;
  for (const auto &[Class, Phases] : phasesRound())
    for (unsigned Rotation : rotations(Class))
      Progs.push_back(
          render(randomSpec(R, Class, std::min(Phases, 32u), Rotation)));
  ServeStream Stream(Seed);
  Stream.warmUp();
  for (int I = 0; I < 200; ++I)
    Stream.next();
  for (const ServeRef &Ref : Stream.Refs)
    Progs.push_back(Ref.Prog);
  unsigned Bad = 0;
  for (const GeneratedProgram &G : Progs) {
    ParseResult P = parseProgram(G.Source);
    if (!P.succeeded() || checkProgram(P.Prog).hasErrors()) {
      std::fprintf(stderr, "self-test: program does not parse:\n%s\n",
                   G.Source.c_str());
      ++Bad;
      continue;
    }
    Cfg Graph = buildCfg(P.Prog);
    // The expected answer as node pairs, for validateTopology.
    AnalysisResult Expected;
    for (const CfgNode &S : Graph.nodes())
      for (const CfgNode &D : Graph.nodes())
        if (S.isCommOp() && D.isCommOp() &&
            G.Expected.count({S.Loc.Line, D.Loc.Line}))
          Expected.Matches.insert({S.Id, D.Id, "", ""});
    RoundRobinScheduler RoundRobin;
    RandomScheduler Random(Seed);
    for (Scheduler *Sched : {static_cast<Scheduler *>(&RoundRobin),
                             static_cast<Scheduler *>(&Random)}) {
      RunOptions Opts;
      Opts.NumProcs = G.RunNp;
      Opts.Params = G.RunParams;
      csdf::RunResult Run = runProgram(Graph, Opts, *Sched);
      ValidationReport V = validateTopology(Expected, Run);
      if (!Run.finished() || !V.MissedPairs.empty()) {
        std::fprintf(stderr, "self-test: %s, %zu missed pair(s):\n%s\n",
                     runStatusName(Run.Status), V.MissedPairs.size(),
                     G.Source.c_str());
        ++Bad;
      }
    }
  }
  std::printf("self-test: %zu generated programs, %u failure(s)\n",
              Progs.size(), Bad);
  return Bad ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

/// Every per-layer metric of the traced run, in report order. A workload
/// that does not load a layer reports 0 for that layer's metrics.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"api.analyzer_setup_us", "us"},
      {"lang.parse_us", "us"},
      {"lang.sema_us", "us"},
      {"lang.source_bytes", "bytes"},
      {"cfg.build_us", "us"},
      {"cfg.nodes", "count"},
      {"pcfg.engine_self_us", "us"},
      {"pcfg.states_explored", "count"},
      {"pcfg.configs_visited", "count"},
      {"pcfg.max_sets", "count"},
      {"pcfg.converged_ratio", "ratio"},
      {"hsm.prover_steps", "count"},
      {"numeric.closure_us", "us"},
      {"numeric.closure_full_calls", "count"},
      {"numeric.closure_incr_calls", "count"},
      {"numeric.closure_avg_vars", "count"},
      {"numeric.memo_hit_ratio", "ratio"},
      {"numeric.cow_copies", "count"},
      {"numeric.cow_detach_ratio", "ratio"},
      {"numeric.peak_dbm_bytes", "bytes"},
      {"topology.classify_us", "us"},
      {"analysis.clients_us", "us"},
      {"analysis.lint_passes_us", "us"},
      {"analysis.diagnostics", "count"},
      {"api.render_us", "us"},
      {"api.wire_decode_us", "us"},
      {"pipeline.adopted_step_ratio", "ratio"},
      {"pipeline.seeded_runs", "count"},
      {"pipeline.cold_runs", "count"},
      {"serve.hit_memory_us", "us"},
      {"serve.hit_disk_us", "us"},
      {"serve.miss_us", "us"},
      {"serve.memory_hit_ratio", "ratio"},
      {"serve.disk_hit_ratio", "ratio"},
      {"serve.memo_entries", "count"},
      {"store.writes", "count"},
      {"store.write_failures", "count"},
      {"store.evictions", "count"},
      {"trace.unattributed_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return Names;
}

/// Puts the traced run's metrics in perLayerMetrics() order, adding a 0
/// for each layer the workload does not load.
void completePerLayer(BenchResult &Out) {
  std::map<std::string, double> Have;
  for (const Metric &M : Out.Metrics)
    Have[M.Name] = M.Value;
  Out.Metrics.clear();
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.Metrics.push_back({Name, Have.count(Name) ? Have[Name] : 0, Unit});
}

void printResult(const BenchResult &Out) {
  for (const std::string &F : Out.Failures)
    std::printf("FAILED: %s\n", F.c_str());
  for (const Metric &M : Out.Metrics)
    std::printf("%-32s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("failed_fraction %.6f (%llu of %llu)\n",
              Out.Attempted ? static_cast<double>(Out.Failed) / Out.Attempted
                            : 0.0,
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));
  std::printf("meta %s\n", bench::benchMetaJson().c_str());
  std::string Json = "{\"correct\": ";
  Json += Out.Failed == 0 && Out.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  char Buf[64];
  for (std::size_t I = 0; I < Out.Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Out.Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + Out.Metrics[I].Name + "\": {\"value\": " +
            Buf + ", \"unit\": \"" + Out.Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: csdf-perfbench --workload kernels_oneshot|phases_cold|"
               "serve_edit --seed N --seconds S --trace 0|1 --repo DIR "
               "--work-dir DIR\n"
               "       csdf-perfbench --self-test --seed N\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Repo = ".", WorkDir = ".bench_build/run";
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--workload")
      Workload = Value();
    else if (Arg == "--seed")
      Seed = std::stoull(Value());
    else if (Arg == "--seconds")
      Seconds = std::stod(Value());
    else if (Arg == "--trace")
      Trace = Value() == "1";
    else if (Arg == "--repo")
      Repo = Value();
    else if (Arg == "--work-dir")
      WorkDir = Value();
    else if (Arg == "--self-test")
      SelfTest = true;
    else
      return usage();
  }
  if (SelfTest)
    return selfTest(Seed);

  fs::create_directories(WorkDir);
  BenchResult Out;
  Rng R(Seed);
  // With --trace 1, half the time runs untraced (for the overhead
  // figure) and half traced.
  double Timed = Trace ? Seconds / 2 : Seconds;
  Tracer T;
  std::optional<LatencyRun> Plain, Traced;

  if (Workload == "kernels_oneshot" || Workload == "phases_cold") {
    std::string Error;
    OneShotWorkload W = Workload == "kernels_oneshot"
                            ? kernelsWorkload(Repo, R, Error)
                            : phasesWorkload(R);
    if (!Error.empty()) {
      std::fprintf(stderr, "csdf-perfbench: %s\n", Error.c_str());
      return 2;
    }
    SetupSampler Setups;
    Setups.SetUp = [&] { return warmUpPass(W, Out); };
    Plain = closedLoop(W, Timed, Out, Setups);
    if (!Trace)
      endToEnd(Out, *Plain, W.TailQ, Setups.Times);
    else
      Traced = oneShotTraced(W, Timed, Out, T);
  } else if (Workload == "serve_edit") {
    ServeWorkload W(Seed, fs::path(WorkDir) / "serve", Out);
    Plain.emplace(ServeWorkload::PassRequests);
    std::vector<double> SetupTimes;
    while (Plain->BusyUs < Timed * 1e6)
      SetupTimes.push_back(W.replay(*Plain, Out, nullptr).SetupS);
    if (!Trace) {
      endToEnd(Out, *Plain, ServeWorkload::TailQ, SetupTimes);
    } else {
      double T0 = nowUs();
      for (int I = 0; I < 100; ++I)
        api::Analyzer An(api::AnalyzerConfig::warm());
      double ApiSetupUs = (nowUs() - T0) / 100;
      // Every replay does the same work, so the counts of the last one
      // are those of any.
      Traced.emplace(ServeWorkload::PassRequests);
      Replay Last;
      while (Traced->BusyUs < Timed * 1e6)
        Last = W.replay(*Traced, Out, &T);
      serveLayerMetrics(Out, T, Last.Before, Last.After, ApiSetupUs);
    }
  } else {
    return usage();
  }

  if (Trace) {
    double PlainP50 = percentile(Plain->BestUs, 0.5);
    Out.Metrics.push_back(
        {"trace.overhead_share",
         PlainP50 > 0 ? percentile(Traced->BestUs, 0.5) / PlainP50 - 1 : 0,
         "share"});
    std::string Path = (fs::path(WorkDir) /
                        (Workload + "-" + std::to_string(Seed) + ".spans.jsonl"))
                           .string();
    if (T.write(Path))
      std::printf("spans written to %s\n", Path.c_str());
    completePerLayer(Out);
  }
  printResult(Out);
  return Out.Failed == 0 ? 0 : 1;
}
