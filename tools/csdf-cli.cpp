//===- tools/csdf-cli.cpp - Command-line driver ---------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The command-line front door to the library:
//
//   csdf check    <file.mpl>                  parse + semantic checks
//   csdf cfg      <file.mpl>                  control-flow graph as DOT
//   csdf run      <file.mpl> [--np N] ...     execute on the interpreter
//   csdf analyze  <file.mpl> [options]        pCFG analysis: topology,
//                                             constants, bug candidates
//   csdf topo     <file.mpl> [options]        matched topology as DOT
//   csdf lint     <file.mpl> [options]        static-analysis pass suite
//                                             with structured diagnostics
//   csdf batch    <dir|filelist> [options]    crash-isolated analysis of a
//                                             whole corpus, JSON report
//   csdf serve    [options]                   persistent analysis daemon:
//                                             JSON-lines requests on stdio
//                                             or a unix socket, answered
//                                             from a warm result cache
//                                             and an optional crash-safe
//                                             on-disk store (--store-dir)
//   csdf client   <type> [file] --socket P    one-shot request against a
//                                             serve daemon or router, with
//                                             overload-aware backoff and
//                                             prompt failover retry on
//                                             dropped connections
//   csdf router   [options]                   fleet front end: consistent-
//                                             hash routing of requests over
//                                             N serve daemons, failover to
//                                             ring successors, per-tenant
//                                             admission control
//   csdf lsp      [options]                   Language Server Protocol
//                                             server on stdio: lint
//                                             diagnostics on every edit,
//                                             via the incremental pipeline
//
// Analysis requests (analyze, lint, batch, serve) all go through the
// csdf::api facade, so the shared request flags parse and validate
// identically everywhere:
//   --client linear|cartesian|sectionx   client analysis (default cartesian)
//   --fixed-np N                pin np for the analysis
//   --param NAME=V              grid parameter (both run and analysis)
//   --max-states N              engine state budget (deterministic trip)
//   --deadline-ms N             cooperative wall-clock deadline; past it
//                               the analysis degrades to Top, not a hang
//   --max-memory-mb N           soft ceiling on live DBM bytes
//   --prover-steps N            HSM prover search-step budget
//   --no-match-nondet           suppress match-nondet reports at wildcard
//                               receives (Top degradation still applies)
//   --test-hooks                honor `# csdf-test:` failure injection
//
// Interpreter options (run, analyze --validate):
//   --np N                      interpreter process count (default 8)
//   --scheduler rr|lifo|random  interpreter schedule (default rr)
//   --seed N                    seed for the random scheduler
//   --validate                  after analyze: compare against a run
//   --stats                     after analyze/lint: dump StatsRegistry
//                               counters and timers to stderr
//
// Analyze options:
//   --format text|json          json prints the same per-file verdict
//                               object as a `csdf batch --report` entry
//
// Lint options:
//   --format text|json|sarif    output format (default text)
//   --Werror                    promote warnings to errors
//   --min-severity note|warning|error   drop findings below this level
//   --disable <pass>            skip a pass (repeatable); `csdf lint
//                               --list-passes` prints all pass names
//
// Batch options:
//   --jobs N                    concurrent children or threads (default 1)
//   --mode fork|threads         fork: rlimited child per file (crash
//                               isolation); threads: in-process pool
//                               sharing one cross-session closure memo
//   --timeout-ms N              per-file wall timeout — SIGKILL in fork
//                               mode, cooperative deadline in threads mode
//   --report out.json           write the per-file JSON report here
//
// Serve options:
//   --cache-size N              result-cache entries (default 256; 0 off)
//   --socket PATH               listen on a unix socket instead of stdio
//   --store-dir DIR             durable on-disk result store: atomic,
//                               checksummed records; a restarted daemon
//                               serves them byte-identically
//   --store-max-mb N            store byte budget in MB (default 256)
//   --max-inflight N            connections served concurrently (def. 8)
//   --queue-depth N             connections allowed to wait beyond that
//                               (def. 16); more are shed with a
//                               structured `overloaded` error
//   --memo-dir DIR              snapshot the warm closure memo here and
//                               adopt it back on startup, so a restarted
//                               daemon is warm on near-miss (edited
//                               source) workloads too
//   --memo-flush-every N        snapshot after N analyzed requests (16)
//   --fault SPEC                arm fault-injection sites (also the
//                               CSDF_FAULT env var); `--fault list`
//                               prints the site catalog
//
// Client options (plus the shared analysis flags and lint flags):
//   --socket PATH               the daemon's socket (required)
//   --send-source               embed the file's bytes as "source"
//   --tenant NAME               tenant name for router admission quotas
//   --verbose                   narrate attempts + answering shard (stderr)
//   --retries N  --retry-base-ms N  --retry-cap-ms N
//
// Router options:
//   --socket PATH               the router's own listening socket (req.)
//   --backend PATH              a shard's socket (repeatable; >= 1 req.)
//   --replicas N                ring virtual nodes per shard (default 64)
//   --tenant-inflight N         per-tenant concurrent forwards (default 4)
//   --tenant-queue N            per-tenant waiters beyond that (default 8)
//   --health-interval-ms N      health-probe period (default 200; 0 off)
//
// Exit codes (analyze, batch, lint):
//   0  complete, no findings
//   1  degraded to Top and/or findings (bugs, lint diagnostics,
//      front-end errors); for batch: any non-complete file
//   2  usage or IO error (bad flag, unreadable or empty input)
//   3  internal error (recovered engine invariant violation)
//
//===----------------------------------------------------------------------===//

#include "analysis/Clients.h"
#include "analysis/Lint.h"
#include "api/Csdf.h"
#include "baseline/MpiCfg.h"
#include "diag/DiagRenderer.h"
#include "cfg/CfgBuilder.h"
#include "cfg/CfgDot.h"
#include "driver/Client.h"
#include "driver/Lsp.h"
#include "driver/Router.h"
#include "driver/Serve.h"
#include "driver/Session.h"
#include "support/Fault.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pcfg/Engine.h"
#include "support/Stats.h"
#include "topology/CommTopology.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace csdf;

namespace {

struct CliOptions {
  std::string Command;
  std::string File;
  /// The shared analysis request options (client preset, engine
  /// overrides, budget) — one parser and one semantics for analyze,
  /// lint, batch, and serve defaults.
  api::RequestOptions Request;
  // Interpreter-only knobs.
  std::string Scheduler = "rr";
  int Np = 8;
  std::uint64_t Seed = 1;
  bool Validate = false;
  bool Stats = false;
  // Lint presentation.
  std::string Format = "text";
  std::string MinSeverity = "note";
  bool Werror = false;
  std::set<std::string> Disabled;
  // Batch driver.
  unsigned Jobs = 1;
  std::uint64_t TimeoutMs = 0;
  std::string BatchMode = "fork";
  std::string ReportPath;
  // Serve daemon.
  std::size_t CacheSize = 256;
  std::string SocketPath;
  std::string StoreDir;
  std::uint64_t StoreMaxMb = 256;
  unsigned MaxInflight = 8;
  unsigned QueueDepth = 16;
  std::string MemoDir;
  std::uint64_t MemoFlushEvery = 16;
  std::string FaultSpec;
  // Client.
  std::string ClientType;
  bool SendSource = false;
  std::string Tenant;
  bool Verbose = false;
  std::uint64_t Retries = 5;
  std::uint64_t RetryBaseMs = 25;
  std::uint64_t RetryCapMs = 2000;
  // Router.
  std::vector<std::string> Backends;
  std::uint64_t Replicas = 64;
  std::uint64_t TenantInflight = 4;
  std::uint64_t TenantQueue = 8;
  std::uint64_t HealthIntervalMs = 200;
  /// True once any shared analysis flag was given — `csdf client` only
  /// sends an "options" object then, so plain requests inherit the
  /// daemon's defaults.
  bool HasRequestFlags = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: csdf <check|cfg|run|analyze|topo|baseline|lint|batch> "
               "<file.mpl|dir> [options]\n"
               "       csdf serve [options]\n"
               "       csdf client <analyze|lint|stats|shutdown> [file.mpl] "
               "--socket PATH [options]\n"
               "       csdf router --socket PATH --backend PATH... "
               "[options]\n"
               "       csdf lsp [options]\n"
               "analysis options (analyze, lint, batch, serve):\n"
               "  --client linear|cartesian|sectionx  --fixed-np N  "
               "--param NAME=V\n"
               "  --max-states N   engine state budget\n"
               "  --deadline-ms N  --max-memory-mb N  --prover-steps N\n"
               "  --no-match-nondet  do not report wildcard receives with "
               "multiple senders\n"
               "interpreter options:\n"
               "  --np N  --scheduler rr|lifo|random  --seed N\n"
               "  --validate  --stats\n"
               "analyze options:\n"
               "  --format text|json   json = one batch-report verdict "
               "object\n"
               "lint options:\n"
               "  --format text|json|sarif  --Werror\n"
               "  --min-severity note|warning|error  --disable <pass>\n"
               "  (csdf lint --list-passes prints every pass name)\n"
               "batch options:\n"
               "  --jobs N  --timeout-ms N  --report out.json\n"
               "  --mode fork|threads   fork = crash-isolated children; "
               "threads = in-process,\n"
               "                        shared closure memo (default "
               "fork)\n"
               "serve options:\n"
               "  --cache-size N   result-cache entries (default 256, 0 "
               "disables)\n"
               "  --socket PATH    unix-socket transport instead of stdio\n"
               "  --store-dir DIR  durable on-disk result store (crash-safe,"
               " checksummed)\n"
               "  --store-max-mb N store byte budget in MB (default 256)\n"
               "  --max-inflight N --queue-depth N  socket admission gate; "
               "connections\n"
               "                   beyond the two are shed with a "
               "structured `overloaded` error\n"
               "  --memo-dir DIR   snapshot the warm closure memo; a "
               "restarted daemon adopts it\n"
               "  --memo-flush-every N  snapshot period in analyzed "
               "requests (default 16)\n"
               "  --fault SPEC     arm fault-injection sites (CSDF_FAULT "
               "env too; `list` prints them)\n"
               "client options (one-shot request to a serve daemon or "
               "router):\n"
               "  --socket PATH    the daemon's socket (required)\n"
               "  --send-source    embed the file bytes as \"source\"\n"
               "  --tenant NAME    tenant name for router admission "
               "quotas\n"
               "  --verbose        narrate attempts and the answering "
               "shard on stderr\n"
               "  --retries N  --retry-base-ms N  --retry-cap-ms N\n"
               "router options (fleet front end over serve daemons):\n"
               "  --socket PATH    the router's listening socket "
               "(required)\n"
               "  --backend PATH   a shard's socket (repeat per shard)\n"
               "  --replicas N     ring virtual nodes per shard (default "
               "64)\n"
               "  --tenant-inflight N --tenant-queue N  per-tenant "
               "admission quotas\n"
               "  --health-interval-ms N  probe period (default 200, 0 "
               "disables)\n"
               "lsp: a Language Server Protocol server on stdio (lint "
               "diagnostics\n"
               "  on every change, incremental re-analysis); takes the "
               "analysis options\n"
               "exit codes: 0 complete, 1 degraded/findings, 2 usage/IO, "
               "3 internal error\n");
}

/// One-line usage diagnostic on stderr; every parseArgs failure goes
/// through here exactly once so the exit-2 contract stays uniform.
bool usageError(const std::string &Msg) {
  std::fprintf(stderr, "csdf: error: %s (run csdf without arguments for "
                       "usage)\n",
               Msg.c_str());
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 2)
    return usageError("expected a command and an input path");
  Opts.Command = Argv[1];
  int First = 3;
  if (Opts.Command == "serve" || Opts.Command == "lsp" ||
      Opts.Command == "router") {
    // The daemons take no input path; their flags set per-request
    // defaults.
    First = 2;
  } else if (Opts.Command == "client") {
    // client <type> [file] --socket PATH [options]
    if (Argc < 3)
      return usageError(
          "client requires a request type (analyze, lint, stats, shutdown)");
    Opts.ClientType = Argv[2];
    if (Opts.ClientType != "analyze" && Opts.ClientType != "lint" &&
        Opts.ClientType != "stats" && Opts.ClientType != "shutdown")
      return usageError("unknown client request type '" + Opts.ClientType +
                        "'");
    First = 3;
    if (First < Argc && Argv[First][0] != '-') {
      Opts.File = Argv[First];
      ++First;
    }
  } else {
    if (Argc < 3)
      return usageError("expected a command and an input path");
    Opts.File = Argv[2];
  }
  for (int I = First; I < Argc; ++I) {
    // The shared analysis request flags are one vocabulary for every
    // front end; try them first.
    std::string SharedError;
    switch (api::parseSharedOption(Argc, Argv, I, Opts.Request,
                                   SharedError)) {
    case api::ArgStatus::Consumed:
      Opts.HasRequestFlags = true;
      continue;
    case api::ArgStatus::Error:
      return usageError(SharedError);
    case api::ArgStatus::NotMine:
      break;
    }
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // Flags taking an unsigned integer value all parse the same way.
    auto NextUint = [&](std::uint64_t &Out) {
      const char *V = Next();
      if (!V)
        return usageError("missing value for " + Arg);
      char *End = nullptr;
      Out = std::strtoull(V, &End, 10);
      if (End == V || *End != '\0')
        return usageError("invalid number '" + std::string(V) + "' for " +
                          Arg);
      return true;
    };
    if (Arg == "--np") {
      std::uint64_t V = 0;
      if (!NextUint(V))
        return false;
      Opts.Np = static_cast<int>(V);
    } else if (Arg == "--seed") {
      if (!NextUint(Opts.Seed))
        return false;
    } else if (Arg == "--scheduler") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --scheduler");
      Opts.Scheduler = V;
      if (Opts.Scheduler != "rr" && Opts.Scheduler != "lifo" &&
          Opts.Scheduler != "random")
        return usageError("unknown scheduler '" + Opts.Scheduler + "'");
    } else if (Arg == "--validate") {
      Opts.Validate = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--jobs") {
      std::uint64_t V = 0;
      if (!NextUint(V))
        return false;
      Opts.Jobs = std::max<std::uint64_t>(1, V);
    } else if (Arg == "--timeout-ms") {
      if (!NextUint(Opts.TimeoutMs))
        return false;
    } else if (Arg == "--mode") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --mode");
      Opts.BatchMode = V;
      if (Opts.BatchMode != "fork" && Opts.BatchMode != "threads")
        return usageError("unknown batch mode '" + Opts.BatchMode + "'");
    } else if (Arg == "--report") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --report");
      Opts.ReportPath = V;
    } else if (Arg == "--format") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --format");
      Opts.Format = V;
      if (Opts.Format != "text" && Opts.Format != "json" &&
          Opts.Format != "sarif")
        return usageError("unknown format '" + Opts.Format + "'");
    } else if (Arg == "--Werror") {
      Opts.Werror = true;
    } else if (Arg == "--min-severity") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --min-severity");
      Opts.MinSeverity = V;
      if (Opts.MinSeverity != "note" && Opts.MinSeverity != "warning" &&
          Opts.MinSeverity != "error")
        return usageError("unknown severity '" + Opts.MinSeverity + "'");
    } else if (Arg == "--disable") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --disable");
      if (!isKnownLintPass(V))
        return usageError("unknown lint pass '" + std::string(V) +
                          "' (try --list-passes)");
      Opts.Disabled.insert(V);
    } else if (Arg == "--cache-size") {
      std::uint64_t V = 0;
      if (!NextUint(V))
        return false;
      Opts.CacheSize = static_cast<std::size_t>(V);
    } else if (Arg == "--socket") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --socket");
      Opts.SocketPath = V;
    } else if (Arg == "--store-dir") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --store-dir");
      Opts.StoreDir = V;
    } else if (Arg == "--store-max-mb") {
      if (!NextUint(Opts.StoreMaxMb))
        return false;
    } else if (Arg == "--max-inflight") {
      std::uint64_t V = 0;
      if (!NextUint(V))
        return false;
      Opts.MaxInflight = static_cast<unsigned>(std::max<std::uint64_t>(1, V));
    } else if (Arg == "--queue-depth") {
      std::uint64_t V = 0;
      if (!NextUint(V))
        return false;
      Opts.QueueDepth = static_cast<unsigned>(V);
    } else if (Arg == "--memo-dir") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --memo-dir");
      Opts.MemoDir = V;
    } else if (Arg == "--memo-flush-every") {
      if (!NextUint(Opts.MemoFlushEvery))
        return false;
    } else if (Arg == "--fault") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --fault");
      Opts.FaultSpec = V;
    } else if (Arg == "--send-source") {
      Opts.SendSource = true;
    } else if (Arg == "--tenant") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --tenant");
      Opts.Tenant = V;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else if (Arg == "--backend") {
      const char *V = Next();
      if (!V)
        return usageError("missing value for --backend");
      Opts.Backends.push_back(V);
    } else if (Arg == "--replicas") {
      if (!NextUint(Opts.Replicas))
        return false;
      if (Opts.Replicas == 0)
        return usageError("--replicas requires a positive integer");
    } else if (Arg == "--tenant-inflight") {
      if (!NextUint(Opts.TenantInflight))
        return false;
      if (Opts.TenantInflight == 0)
        return usageError("--tenant-inflight requires a positive integer");
    } else if (Arg == "--tenant-queue") {
      if (!NextUint(Opts.TenantQueue))
        return false;
    } else if (Arg == "--health-interval-ms") {
      if (!NextUint(Opts.HealthIntervalMs))
        return false;
    } else if (Arg == "--retries") {
      if (!NextUint(Opts.Retries))
        return false;
    } else if (Arg == "--retry-base-ms") {
      if (!NextUint(Opts.RetryBaseMs))
        return false;
      if (Opts.RetryBaseMs == 0)
        return usageError("--retry-base-ms requires a positive integer");
    } else if (Arg == "--retry-cap-ms") {
      if (!NextUint(Opts.RetryCapMs))
        return false;
      if (Opts.RetryCapMs == 0)
        return usageError("--retry-cap-ms requires a positive integer");
    } else {
      return usageError("unknown option '" + Arg + "'");
    }
  }
  if (Opts.Command == "analyze" && Opts.Format == "sarif")
    return usageError("analyze supports --format text|json");
  return true;
}

RunResult execute(const Cfg &Graph, const CliOptions &Cli) {
  RunOptions Opts;
  Opts.NumProcs = Cli.Np;
  Opts.Params = Cli.Request.Params;
  if (Cli.Scheduler == "lifo") {
    LifoScheduler S;
    return runProgram(Graph, Opts, S);
  }
  if (Cli.Scheduler == "random") {
    RandomScheduler S(Cli.Seed);
    return runProgram(Graph, Opts, S);
  }
  RoundRobinScheduler S;
  return runProgram(Graph, Opts, S);
}

int cmdRun(const Cfg &Graph, const CliOptions &Cli) {
  RunResult R = execute(Graph, Cli);
  std::printf("status: %s\n", runStatusName(R.Status));
  if (!R.Error.empty())
    std::printf("error: %s\n", R.Error.c_str());
  for (size_t Rank = 0; Rank < R.Prints.size(); ++Rank)
    for (std::int64_t V : R.Prints[Rank])
      std::printf("rank %zu prints %lld\n", Rank,
                  static_cast<long long>(V));
  std::printf("%zu messages delivered\n", R.Trace.size());
  for (const LeakedMessage &L : R.Leaks)
    std::printf("LEAK: %d -> %d value %lld (sent at %s)\n", L.Sender,
                L.Receiver, static_cast<long long>(L.Value),
                Graph.nodeLabel(L.SendNode).c_str());
  for (const LeakedRequest &L : R.RequestLeaks)
    std::printf("REQUEST LEAK: rank %d never waited on '%s' (posted at "
                "%s)\n",
                L.Rank, L.Req.c_str(), Graph.nodeLabel(L.PostNode).c_str());
  for (const NondetWitness &W : R.NondetWitnesses) {
    std::string Senders;
    for (int S : W.EligibleSenders)
      Senders += (Senders.empty() ? "" : ", ") + std::to_string(S);
    std::printf("NONDET: rank %d wildcard receive at %s had %zu eligible "
                "senders {%s}\n",
                W.Receiver, Graph.nodeLabel(W.RecvNode).c_str(),
                W.EligibleSenders.size(), Senders.c_str());
  }
  for (int Rank : R.BlockedRanks)
    std::printf("BLOCKED: rank %d never finished\n", Rank);
  return R.finished() ? 0 : 1;
}

/// Dumps the global StatsRegistry to stderr (keeps stdout clean for the
/// json/sarif formats and the golden corpus).
void printStats() {
  const StatsRegistry &R = StatsRegistry::global();
  std::fprintf(stderr, "--- stats ---\n");
  for (const auto &[Name, Value] : R.counters())
    std::fprintf(stderr, "%-28s %lld\n", Name.c_str(),
                 static_cast<long long>(Value));
  for (const auto &[Name, Seconds] : R.timers())
    std::fprintf(stderr, "%-28s %.6f s\n", Name.c_str(), Seconds);
}

int cmdAnalyze(const std::string &Source, const CliOptions &Cli) {
  if (Cli.Stats)
    StatsRegistry::global().clear();
  // A cold analyzer: one-shot runs get fresh per-run state, exactly the
  // classic pipeline (the serve daemon is the warm holder).
  api::Analyzer An;
  api::AnalyzeRequest Req;
  Req.Path = Cli.File;
  Req.Source = Source;
  Req.Options = Cli.Request;
  api::AnalyzeResponse Resp = An.analyze(Req);
  SessionResult &S = Resp.Session;

  if (Cli.Format == "json") {
    // The same verdict object a batch report entry (and a serve response)
    // carries for this file.
    std::printf("%s\n", api::verdictJson(Cli.File, Resp).c_str());
    if (Cli.Stats)
      printStats();
    return S.ExitCode;
  }

  if (S.FrontEndErrors) {
    std::fputs(S.Error.c_str(), stderr);
    return S.ExitCode;
  }

  auto PrintBudgetLine = [&] {
    if (Cli.Request.DeadlineMs || Cli.Request.MaxMemoryMb ||
        Cli.Request.ProverSteps)
      std::printf("budget: %llu ms elapsed, peak DBM bytes %llu, prover "
                  "steps %llu\n",
                  static_cast<unsigned long long>(S.ElapsedMs),
                  static_cast<unsigned long long>(S.PeakDbmBytes),
                  static_cast<unsigned long long>(S.ProverStepsUsed));
  };

  // S.Outcome is the session-level verdict: it matches the engine's on the
  // happy path and is the only trustworthy one when a stage before or
  // after the engine failed (budget trip in parse/sema/CFG build, hook,
  // client pass) — the report's copy is default-empty on those paths.
  if (!S.Graph) {
    // The pipeline stopped before a CFG existed: no stats or findings to
    // show, just the verdict and the accounting snapshot.
    if (S.Outcome.internalError())
      std::fprintf(stderr, "csdf: %s\n", S.Error.c_str());
    std::printf("verdict: %s\n", S.Outcome.str().c_str());
    if (!S.Outcome.complete() && !S.Outcome.Reason.empty())
      std::printf("  reason: %s\n", S.Outcome.Reason.c_str());
    PrintBudgetLine();
    if (Cli.Stats)
      printStats();
    return S.ExitCode;
  }

  const Cfg &Graph = *S.Graph;
  ClientReport &Report = S.Report;
  AnalysisResult &R = Report.Analysis;
  std::printf("verdict: %s\n", S.Outcome.str().c_str());
  if (!S.Outcome.complete() && !S.Outcome.Reason.empty())
    std::printf("  reason: %s\n", S.Outcome.Reason.c_str());
  if (!S.Outcome.Configuration.empty())
    std::printf("  at configuration: %s\n", S.Outcome.Configuration.c_str());
  std::printf("states explored: %u, configurations: %u, max process sets: "
              "%u\n",
              R.StatesExplored, R.ConfigsVisited, R.MaxSetsSeen);
  PrintBudgetLine();
  if (S.Outcome.internalError()) {
    // Partial facts after an invariant violation are untrustworthy; print
    // nothing beyond the verdict and the accounting snapshot.
    if (Cli.Stats)
      printStats();
    return S.ExitCode;
  }

  std::printf("\ntopology (%zu matches):\n", R.Matches.size());
  for (const MatchRecord &M : R.Matches)
    std::printf("  %-30s -> %-30s  %s -> %s\n",
                Graph.nodeLabel(M.SendNode).c_str(),
                Graph.nodeLabel(M.RecvNode).c_str(), M.SenderRange.c_str(),
                M.ReceiverRange.c_str());
  for (const ClassifiedPattern &P : Report.Patterns)
    std::printf("  pattern: %-14s %s\n", patternKindName(P.Kind),
                P.Description.c_str());
  for (const CollectiveSuggestion &S : Report.Suggestions)
    std::printf("  optimize: use %-28s (%s)\n", S.Collective.c_str(),
                S.Description.c_str());
  if (!Report.ShareableConstants.empty()) {
    std::printf("\nshareable read-only data (identical on every "
                "process):\n");
    for (const auto &[Var, Value] : Report.ShareableConstants)
      std::printf("  %s == %lld\n", Var.c_str(),
                  static_cast<long long>(Value));
  }

  if (!R.PrintFacts.empty()) {
    std::printf("\nprint facts:\n");
    for (const PrintFact &F : R.PrintFacts) {
      if (F.Value)
        std::printf("  %s prints constant %lld at %s\n", F.SetRange.c_str(),
                    static_cast<long long>(*F.Value),
                    Graph.nodeLabel(F.Node).c_str());
      else
        std::printf("  %s prints unknown value at %s\n", F.SetRange.c_str(),
                    Graph.nodeLabel(F.Node).c_str());
    }
  }
  if (!R.Bugs.empty()) {
    std::printf("\nbug candidates:\n");
    for (const AnalysisBug &B : R.Bugs) {
      if (B.Loc.isValid())
        std::printf("  [%s] %s: %s\n", analysisBugKindName(B.TheKind),
                    B.Loc.str().c_str(), B.Detail.c_str());
      else
        std::printf("  [%s] %s\n", analysisBugKindName(B.TheKind),
                    B.Detail.c_str());
    }
  }

  if (Cli.Stats)
    printStats();
  if (Cli.Validate) {
    RunResult Run = execute(Graph, Cli);
    ValidationReport Validation = validateTopology(R, Run);
    std::printf("\nvalidation (np=%d): %s\n", Cli.Np,
                Validation.str(Graph).c_str());
    return R.Converged && Validation.Exact ? 0 : 1;
  }
  return S.ExitCode;
}

DiagSeverity severityFromName(const std::string &Name) {
  if (Name == "error")
    return DiagSeverity::Error;
  if (Name == "warning")
    return DiagSeverity::Warning;
  return DiagSeverity::Note;
}

int cmdLint(const std::string &Source, const CliOptions &Cli) {
  if (Cli.Stats)
    StatsRegistry::global().clear();
  api::Analyzer An;
  api::LintRequest Req;
  Req.Path = Cli.File;
  Req.Source = Source;
  Req.Options = Cli.Request;
  Req.Disabled = Cli.Disabled;
  Req.Werror = Cli.Werror;
  Req.MinSeverity = severityFromName(Cli.MinSeverity);
  api::LintResponse R = An.lint(Req);
  if (Cli.Stats)
    printStats();

  std::string Out;
  if (Cli.Format == "json")
    Out = renderDiagsJson(R.Diagnostics, Cli.File);
  else if (Cli.Format == "sarif")
    Out = renderDiagsSarif(R.Diagnostics, Cli.File, lintRuleDocs());
  else
    Out = renderDiagsText(R.Diagnostics, Cli.File, Source);
  std::fputs(Out.c_str(), stdout);

  if (Cli.Format == "text" && !R.Diagnostics.empty()) {
    unsigned Errors = 0, Warnings = 0, Notes = 0;
    for (const Diagnostic &D : R.Diagnostics) {
      if (D.Sev == DiagSeverity::Error)
        ++Errors;
      else if (D.Sev == DiagSeverity::Warning)
        ++Warnings;
      else
        ++Notes;
    }
    std::printf("%zu finding(s): %u error(s), %u warning(s), %u note(s)\n",
                R.Diagnostics.size(), Errors, Warnings, Notes);
  }
  return R.ExitCode;
}

int cmdBatch(const CliOptions &Cli) {
  std::vector<std::string> Files;
  std::string Error;
  if (!collectBatchInputs(Cli.File, Files, Error)) {
    std::fprintf(stderr, "csdf: %s\n", Error.c_str());
    return SessionExitUsage;
  }

  api::BatchRequest Req;
  Req.Files = std::move(Files);
  Req.Options = Cli.Request;
  // Batch corpora are allowed to inject failures: the whole point of the
  // driver is surviving them.
  Req.Options.TestHooks = true;
  Req.Jobs = Cli.Jobs;
  Req.TimeoutMs = Cli.TimeoutMs;
  Req.Mode =
      Cli.BatchMode == "threads" ? BatchMode::Threads : BatchMode::Fork;

  api::Analyzer An;
  BatchReport Report = An.runBatch(Req);
  for (const BatchEntry &E : Report.Entries)
    std::printf("%-40s %-26s %6llu ms  %s\n", E.File.c_str(),
                E.Verdict.c_str(), static_cast<unsigned long long>(E.WallMs),
                E.Detail.c_str());
  std::printf("batch: %zu file(s): %u complete, %u findings, %u usage, "
              "%u internal, %u crash(es), %u timeout(s)\n",
              Report.Entries.size(), Report.Complete, Report.Findings,
              Report.UsageErrors, Report.InternalErrors, Report.Crashes,
              Report.Timeouts);

  if (!Cli.ReportPath.empty()) {
    std::ofstream Out(Cli.ReportPath);
    if (!Out) {
      std::fprintf(stderr, "csdf: error: cannot write report '%s'\n",
                   Cli.ReportPath.c_str());
      return SessionExitUsage;
    }
    Out << Report.json();
  }
  return Report.allComplete() ? SessionExitComplete : SessionExitFindings;
}

int cmdServe(const CliOptions &Cli) {
  if (Cli.FaultSpec == "list") {
    for (const FaultSiteInfo &S : FaultInjector::knownSites())
      std::printf("%-22s %s\n", S.Name, S.Description);
    return 0;
  }
  // Env first so --fault can override a stale environment.
  std::string FaultError;
  if (!FaultInjector::global().configureFromEnv(FaultError) ||
      (!Cli.FaultSpec.empty() &&
       !FaultInjector::global().configure(Cli.FaultSpec, FaultError))) {
    std::fprintf(stderr, "csdf: error: %s\n", FaultError.c_str());
    return 2;
  }

  ServeOptions Opts;
  Opts.Defaults = Cli.Request;
  Opts.CacheCapacity = Cli.CacheSize;
  Opts.SocketPath = Cli.SocketPath;
  Opts.StoreDir = Cli.StoreDir;
  Opts.StoreMaxBytes = Cli.StoreMaxMb << 20;
  Opts.MaxInflight = Cli.MaxInflight;
  Opts.QueueDepth = Cli.QueueDepth;
  Opts.MemoDir = Cli.MemoDir;
  Opts.MemoFlushEvery = static_cast<unsigned>(Cli.MemoFlushEvery);
  return runServe(Opts);
}

int cmdRouter(const CliOptions &Cli) {
  RouterOptions Opts;
  Opts.Backends = Cli.Backends;
  Opts.SocketPath = Cli.SocketPath;
  Opts.Replicas = static_cast<unsigned>(Cli.Replicas);
  Opts.TenantMaxInflight = static_cast<unsigned>(Cli.TenantInflight);
  Opts.TenantQueueDepth = static_cast<unsigned>(Cli.TenantQueue);
  Opts.HealthIntervalMs = static_cast<unsigned>(Cli.HealthIntervalMs);
  return runRouter(Opts);
}

int cmdClient(const CliOptions &Cli) {
  ClientOptions Opts;
  Opts.SocketPath = Cli.SocketPath;
  Opts.Type = Cli.ClientType;
  Opts.Path = Cli.File;
  Opts.SendSource = Cli.SendSource;
  Opts.Options = Cli.Request;
  Opts.HasOptions = Cli.HasRequestFlags;
  Opts.Tenant = Cli.Tenant;
  Opts.Verbose = Cli.Verbose;
  Opts.Disabled = Cli.Disabled;
  Opts.Werror = Cli.Werror;
  if (Cli.MinSeverity != "note") // the daemon's default; omit when unset
    Opts.MinSeverity = Cli.MinSeverity;
  Opts.Retries = static_cast<unsigned>(Cli.Retries);
  Opts.RetryBaseMs = static_cast<unsigned>(Cli.RetryBaseMs);
  Opts.RetryCapMs = static_cast<unsigned>(Cli.RetryCapMs);
  return runClient(Opts);
}

int cmdLsp(const CliOptions &Cli) {
  LspOptions Opts;
  Opts.Defaults = Cli.Request;
  return runLsp(Opts);
}

int cmdListPasses() {
  for (const LintPassInfo &P : lintPassRegistry())
    std::printf("%-18s %s\n", P.Name.c_str(), P.Description.c_str());
  return 0;
}

int cmdBaseline(const Cfg &Graph) {
  MpiCfgResult R = buildMpiCfg(Graph);
  std::printf("MPI-CFG: %u all-pairs edges, %u pruned by tag, %u pruned by "
              "shift, %zu kept:\n",
              R.InitialEdges, R.PrunedByTag, R.PrunedByShift,
              R.Edges.size());
  for (const auto &[S, Rv] : R.Edges)
    std::printf("  %-30s -> %s\n", Graph.nodeLabel(S).c_str(),
                Graph.nodeLabel(Rv).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    usage();
    return 2;
  }

  if (Cli.Command == "lint" && Cli.File == "--list-passes")
    return cmdListPasses();

  // The daemons and the batch driver resolve their own inputs.
  if (Cli.Command == "serve")
    return cmdServe(Cli);
  if (Cli.Command == "client")
    return cmdClient(Cli);
  if (Cli.Command == "router")
    return cmdRouter(Cli);
  if (Cli.Command == "lsp")
    return cmdLsp(Cli);
  if (Cli.Command == "batch")
    return cmdBatch(Cli);

  std::string Source, ReadError;
  if (!readSessionFile(Cli.File, Source, ReadError)) {
    std::fprintf(stderr, "%s\n", ReadError.c_str());
    return 2;
  }

  // Lint owns its whole pipeline (parse errors become diagnostics in the
  // selected output format rather than raw stderr lines).
  if (Cli.Command == "lint")
    return cmdLint(Source, Cli);
  // Analyze runs through the fail-safe session layer (budget + recovery).
  if (Cli.Command == "analyze")
    return cmdAnalyze(Source, Cli);

  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.succeeded()) {
    for (const ParseDiagnostic &D : Parsed.Diagnostics)
      std::fprintf(stderr, "%s: %s\n", Cli.File.c_str(), D.str().c_str());
    return 1;
  }
  SemaResult Sema = checkProgram(Parsed.Prog);
  for (const SemaDiagnostic &D : Sema.Diagnostics)
    std::fprintf(stderr, "%s: %s\n", Cli.File.c_str(), D.str().c_str());
  if (Sema.hasErrors())
    return 1;

  if (Cli.Command == "check") {
    std::printf("%s: ok\n", Cli.File.c_str());
    return 0;
  }

  Cfg Graph = buildCfg(Parsed.Prog);
  if (Cli.Command == "cfg") {
    std::fputs(cfgToDot(Graph, "cfg").c_str(), stdout);
    return 0;
  }
  if (Cli.Command == "run")
    return cmdRun(Graph, Cli);
  if (Cli.Command == "baseline")
    return cmdBaseline(Graph);
  if (Cli.Command == "topo") {
    AnalysisResult R = analyzeProgram(Graph, Cli.Request.analysis());
    std::fputs(topologyToDot(Graph, R, "topology").c_str(), stdout);
    return R.Converged ? 0 : 1;
  }
  usage();
  return 2;
}
