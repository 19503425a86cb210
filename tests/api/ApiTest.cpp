//===- tests/api/ApiTest.cpp - stable facade tests -------------------------===//
//
// api::RequestOptions (the one option bag every front end shares: CLI
// spelling, JSON spelling, cache-key fingerprint) and api::Analyzer (the
// one construction path for analyze/lint/batch). The per-file verdict JSON
// must be the same schema everywhere, so `csdf analyze --format json`,
// `csdf batch --report` and `csdf serve` results stay interchangeable.
//
//===----------------------------------------------------------------------===//

#include "api/Csdf.h"
#include "driver/Batch.h"
#include "lang/Corpus.h"
#include "support/Version.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <unistd.h>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

const char *CleanSource = "if id == 0 then\n"
                          "  x = 42;\n"
                          "  send x -> 1;\n"
                          "elif id == 1 then\n"
                          "  recv y <- 0;\n"
                          "  print y;\n"
                          "end\n";

const char *LeakSource = "if id == 0 then\n"
                         "  x = 1;\n"
                         "  send x -> 1;\n"
                         "  send x -> 1;\n"
                         "elif id == 1 then\n"
                         "  recv y <- 0;\n"
                         "end\n";

struct TempDir {
  fs::path Dir;
  TempDir() {
    Dir = fs::temp_directory_path() /
          ("csdf-api-test-" + std::to_string(::getpid()));
    fs::create_directories(Dir);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  std::string add(const std::string &Name, const std::string &Source) {
    fs::path P = Dir / Name;
    std::ofstream(P) << Source;
    return P.string();
  }
};

//===--------------------------------------------------------------------===//
// Shared option parsing
//===--------------------------------------------------------------------===//

TEST(RequestOptionsTest, SharedFlagsParseEverywhereTheSame) {
  const char *Argv[] = {"--client",        "linear", "--fixed-np", "6",
                        "--param",         "rows=3", "--max-states", "500",
                        "--deadline-ms",   "250",    "--max-memory-mb", "64",
                        "--prover-steps",  "9000",   "--test-hooks",
                        "--no-match-nondet"};
  int Argc = static_cast<int>(std::size(Argv));
  api::RequestOptions Opts;
  std::string Error;
  for (int I = 0; I < Argc; ++I)
    ASSERT_EQ(api::parseSharedOption(Argc, Argv, I, Opts, Error),
              api::ArgStatus::Consumed)
        << Argv[I] << ": " << Error;

  EXPECT_EQ(Opts.Client, "linear");
  EXPECT_EQ(Opts.FixedNp, 6);
  EXPECT_EQ(Opts.Params.at("rows"), 3);
  EXPECT_EQ(Opts.MaxStates, 500u);
  EXPECT_EQ(Opts.DeadlineMs, 250u);
  EXPECT_EQ(Opts.MaxMemoryMb, 64u);
  EXPECT_EQ(Opts.ProverSteps, 9000u);
  EXPECT_TRUE(Opts.TestHooks);
  EXPECT_FALSE(Opts.CheckMatchNondet);

  // The resolved engine/session options reflect the overrides.
  AnalysisOptions An = Opts.analysis();
  EXPECT_FALSE(An.CheckMatchNondet);
  EXPECT_EQ(An.FixedNp, 6);
  EXPECT_EQ(An.MaxStates, 500u);
  EXPECT_EQ(An.Params.at("rows"), 3);
  SessionOptions S = Opts.session();
  EXPECT_EQ(S.DeadlineMs, 250u);
  EXPECT_EQ(S.MaxMemoryMb, 64u);
  EXPECT_EQ(S.MaxProverSteps, 9000u);
  EXPECT_TRUE(S.EnableTestHooks);
}

TEST(RequestOptionsTest, BadSharedFlagValuesFailLoudly) {
  auto Try = [](std::vector<const char *> Argv) {
    api::RequestOptions Opts;
    std::string Error;
    int I = 0;
    api::ArgStatus St = api::parseSharedOption(
        static_cast<int>(Argv.size()), Argv.data(), I, Opts, Error);
    if (St == api::ArgStatus::Error) {
      EXPECT_FALSE(Error.empty());
    }
    return St;
  };
  EXPECT_EQ(Try({"--client", "bogus"}), api::ArgStatus::Error);
  EXPECT_EQ(Try({"--client"}), api::ArgStatus::Error); // missing value
  EXPECT_EQ(Try({"--fixed-np", "0"}), api::ArgStatus::Error);
  EXPECT_EQ(Try({"--fixed-np", "-3"}), api::ArgStatus::Error);
  EXPECT_EQ(Try({"--param", "noequals"}), api::ArgStatus::Error);
  EXPECT_EQ(Try({"--param", "=5"}), api::ArgStatus::Error);
  EXPECT_EQ(Try({"--max-states", "x"}), api::ArgStatus::Error);
  EXPECT_EQ(Try({"--deadline-ms", "-1"}), api::ArgStatus::Error);
  // Non-shared flags are left for the caller's own table.
  EXPECT_EQ(Try({"--np", "8"}), api::ArgStatus::NotMine);
  EXPECT_EQ(Try({"--format", "json"}), api::ArgStatus::NotMine);
  // The engine has no worker-count option, so that flag is nobody's and
  // every front end ends in its unknown-option usage error.
  EXPECT_EQ(Try({"--threads", "4"}), api::ArgStatus::NotMine);
}

TEST(RequestOptionsTest, JsonSpellingMatchesFlagSpelling) {
  JsonValue Json;
  std::string Error;
  ASSERT_TRUE(parseJson("{\"client\": \"sectionx\", \"fixed_np\": 4, "
                        "\"params\": {\"rows\": 2}, "
                        "\"max_states\": 10, \"deadline_ms\": 100, "
                        "\"max_memory_mb\": 32, \"prover_steps\": 7, "
                        "\"test_hooks\": true, "
                        "\"check_match_nondet\": false}",
                        Json, Error))
      << Error;
  api::RequestOptions Opts;
  ASSERT_TRUE(api::optionsFromJson(Json, Opts, Error)) << Error;
  EXPECT_EQ(Opts.Client, "sectionx");
  EXPECT_EQ(Opts.FixedNp, 4);
  EXPECT_EQ(Opts.Params.at("rows"), 2);
  EXPECT_EQ(Opts.MaxStates, 10u);
  EXPECT_EQ(Opts.DeadlineMs, 100u);
  EXPECT_EQ(Opts.MaxMemoryMb, 32u);
  EXPECT_EQ(Opts.ProverSteps, 7u);
  EXPECT_TRUE(Opts.TestHooks);
  EXPECT_FALSE(Opts.CheckMatchNondet);

  // Typos and type mismatches are rejected, not silently defaulted.
  auto Fails = [](const char *Text) {
    JsonValue V;
    std::string E;
    EXPECT_TRUE(parseJson(Text, V, E)) << E;
    api::RequestOptions O;
    bool Ok = api::optionsFromJson(V, O, E);
    EXPECT_FALSE(Ok) << Text;
    EXPECT_FALSE(E.empty());
  };
  Fails("{\"deadline\": 5}");            // unknown member
  Fails("{\"client\": \"zap\"}");        // unknown preset
  Fails("{\"max_states\": \"ten\"}");    // type mismatch
  Fails("{\"fixed_np\": 0}");            // out of range
  Fails("{\"check_match_nondet\": 3}");  // not a bool
  Fails("{\"params\": {\"rows\": \"x\"}}");
  Fails("[1]");                          // not an object
}

TEST(RequestOptionsTest, OptionsToJsonRoundTripsThroughFromJson) {
  // The third spelling (`csdf client` request bodies) must round-trip:
  // optionsToJson -> optionsFromJson lands on an identical fingerprint,
  // for defaults and for a fully non-default bag.
  auto RoundTrips = [](const api::RequestOptions &Opts) {
    std::string Text = api::optionsToJson(Opts);
    JsonValue Json;
    std::string Error;
    ASSERT_TRUE(parseJson(Text, Json, Error)) << Text << ": " << Error;
    api::RequestOptions Back;
    ASSERT_TRUE(api::optionsFromJson(Json, Back, Error)) << Text << ": "
                                                         << Error;
    EXPECT_EQ(Back.fingerprint(), Opts.fingerprint()) << Text;
    EXPECT_EQ(Text.find("threads"), std::string::npos) << Text;
  };
  RoundTrips(api::RequestOptions());

  api::RequestOptions Full;
  Full.Client = "sectionx";
  Full.FixedNp = 4;
  Full.Params["rows"] = 2;
  Full.Params["cols"] = 3;
  Full.MaxStates = 10;
  Full.DeadlineMs = 100;
  Full.MaxMemoryMb = 32;
  Full.ProverSteps = 7;
  Full.TestHooks = true;
  Full.CheckMatchNondet = false;
  RoundTrips(Full);
}

//===--------------------------------------------------------------------===//
// Fingerprint (the cache key's option half)
//===--------------------------------------------------------------------===//

TEST(RequestOptionsTest, FingerprintSeparatesSemanticallyDifferentRequests) {
  api::RequestOptions Base;
  std::string F = Base.fingerprint();
  EXPECT_EQ(F, api::RequestOptions().fingerprint()) << "must be stable";

  auto Differs = [&](void (*Mutate)(api::RequestOptions &)) {
    api::RequestOptions O;
    Mutate(O);
    EXPECT_NE(O.fingerprint(), F);
  };
  Differs([](api::RequestOptions &O) { O.Client = "linear"; });
  Differs([](api::RequestOptions &O) { O.FixedNp = 9; });
  Differs([](api::RequestOptions &O) { O.Params["rows"] = 2; });
  Differs([](api::RequestOptions &O) { O.MaxStates = 5; });
  Differs([](api::RequestOptions &O) { O.DeadlineMs = 50; });
  Differs([](api::RequestOptions &O) { O.MaxMemoryMb = 64; });
  Differs([](api::RequestOptions &O) { O.ProverSteps = 10; });
  Differs([](api::RequestOptions &O) { O.TestHooks = true; });
  // Detector toggles must key the serve cache: a cached result computed
  // with the check on would otherwise be replayed after it is turned off.
  Differs([](api::RequestOptions &O) { O.CheckMatchNondet = false; });
}

//===--------------------------------------------------------------------===//
// Analyzer.analyze
//===--------------------------------------------------------------------===//

TEST(AnalyzerTest, InlineSourceCompletesWithExitZero) {
  api::Analyzer An;
  api::AnalyzeRequest Req;
  Req.Path = "buffer.mpl";
  Req.Source = CleanSource;
  Req.Options.Client = "linear";
  api::AnalyzeResponse R = An.analyze(Req);
  EXPECT_EQ(R.exitCode(), SessionExitComplete);
  EXPECT_TRUE(R.outcome().complete());
  EXPECT_FALSE(R.degraded());
  ASSERT_NE(R.Session.Graph, nullptr);
  EXPECT_EQ(R.Session.Report.Analysis.matchedNodePairs().size(), 1u);
}

TEST(AnalyzerTest, MissingFileAndEmptyBufferAreUsageErrors) {
  api::Analyzer An;
  api::AnalyzeRequest Req;
  Req.Path = "/nonexistent/never.mpl";
  api::AnalyzeResponse R = An.analyze(Req);
  EXPECT_EQ(R.exitCode(), SessionExitUsage);
  EXPECT_NE(R.Session.Error.find("cannot read"), std::string::npos);

  Req.Path = "buf.mpl";
  Req.Source = "";
  R = An.analyze(Req);
  EXPECT_EQ(R.exitCode(), SessionExitUsage);
  EXPECT_NE(R.Session.Error.find("is empty"), std::string::npos);
}

TEST(AnalyzerTest, StateBudgetTripsDeterministically) {
  // --max-states is the deterministic budget trip (unlike a deadline, its
  // reason text carries no timing), which is what serve's cache tests and
  // the golden corpus rely on.
  api::Analyzer An;
  api::AnalyzeRequest Req;
  Req.Path = "tripped.mpl";
  Req.Source = CleanSource;
  Req.Options.MaxStates = 1;
  api::AnalyzeResponse R = An.analyze(Req);
  EXPECT_TRUE(R.degraded());
  EXPECT_EQ(R.outcome().str(), "degraded-to-top(states)");
  EXPECT_EQ(R.outcome().Reason, "state budget exceeded");
}

TEST(AnalyzerTest, WarmAndColdAnalyzersAgreeOnVerdicts) {
  // Warm state (shared symbols + cross-session memo) is an optimization,
  // never a semantic change: repeated and mixed requests must produce the
  // same verdict JSON a cold run produces, byte for byte (modulo wall
  // time). The warm Analyzer sees every program in reverse order first,
  // so its shared table hands out ids in another order than each cold
  // run's fresh table; bound forms are ordered by name, not id, so the
  // verdicts must not notice.
  auto Normalize = [](std::string S) {
    return std::regex_replace(S, std::regex("\"wall_ms\": \\d+"),
                              "\"wall_ms\": 0");
  };
  std::vector<api::AnalyzeRequest> Reqs;
  auto Add = [&](std::string Path, std::string Source) {
    api::AnalyzeRequest Req;
    Req.Path = std::move(Path);
    Req.Source = std::move(Source);
    Reqs.push_back(std::move(Req));
  };
  for (const char *Source : {CleanSource, LeakSource, CleanSource, LeakSource})
    Add("w.mpl", Source);
  for (const corpus::NamedProgram &P : corpus::allPatterns())
    Add(P.Name + ".mpl", P.Source);
  std::vector<fs::path> Examples;
  for (const fs::directory_entry &E : fs::directory_iterator(CSDF_EXAMPLES_DIR))
    if (E.path().extension() == ".mpl")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  ASSERT_FALSE(Examples.empty());
  for (const fs::path &F : Examples) {
    std::ifstream In(F);
    std::stringstream Source;
    Source << In.rdbuf();
    Add(F.filename().string(), Source.str());
  }

  api::Analyzer Warm(api::AnalyzerConfig::warm());
  for (auto It = Reqs.rbegin(); It != Reqs.rend(); ++It)
    Warm.analyze(*It);
  for (const api::AnalyzeRequest &Req : Reqs) {
    api::AnalyzeResponse WarmR = Warm.analyze(Req);
    api::Analyzer Cold;
    api::AnalyzeResponse ColdR = Cold.analyze(Req);
    EXPECT_EQ(Normalize(api::verdictJson(Req.Path, WarmR)),
              Normalize(api::verdictJson(Req.Path, ColdR)))
        << Req.Path;
  }
}

//===--------------------------------------------------------------------===//
// One verdict schema across surfaces
//===--------------------------------------------------------------------===//

#ifndef _WIN32

TEST(AnalyzerTest, VerdictJsonMatchesBatchReportRow) {
  // `csdf analyze --format json` output for a file is the corresponding
  // `csdf batch --report` entry plus the identity suffix (tool_version,
  // options_fingerprint), modulo the volatile measurement fields.
  TempDir Dir;
  std::string Clean = Dir.add("clean.mpl", CleanSource);
  std::string Leak = Dir.add("leak.mpl", LeakSource);

  api::Analyzer An;
  api::BatchRequest BReq;
  BReq.Files = {Clean, Leak};
  BReq.Mode = BatchMode::Fork;
  BatchReport Report = An.runBatch(BReq);
  ASSERT_EQ(Report.Entries.size(), 2u);

  auto Normalize = [](std::string S) {
    S = std::regex_replace(S, std::regex("\"wall_ms\": \\d+"),
                           "\"wall_ms\": 0");
    return std::regex_replace(S, std::regex("\"peak_rss_kb\": \\d+"),
                              "\"peak_rss_kb\": 0");
  };
  for (size_t I = 0; I < BReq.Files.size(); ++I) {
    api::AnalyzeRequest Req;
    Req.Path = BReq.Files[I];
    api::AnalyzeResponse R = An.analyze(Req);
    std::string Row = batchEntryJson(Report.Entries[I]);
    std::string Expected =
        Row.substr(0, Row.size() - 1) + ", \"tool_version\": \"" +
        std::string(toolVersion()) + "\", \"options_fingerprint\": \"" +
        Req.Options.fingerprint() + "\"}";
    EXPECT_EQ(Normalize(api::verdictJson(Req.Path, R)), Normalize(Expected))
        << BReq.Files[I];
  }
}

#endif // !_WIN32

//===--------------------------------------------------------------------===//
// Analyzer.lint
//===--------------------------------------------------------------------===//

TEST(AnalyzerTest, LintReportsFiltersAndPromotes) {
  api::Analyzer An;
  api::LintRequest Req;
  Req.Path = "lint.mpl";
  Req.Source = "x = 1;\nx = 2;\nprint x;\n"; // first store is dead

  api::LintResponse R = An.lint(Req);
  EXPECT_EQ(R.ExitCode, 1);
  ASSERT_FALSE(R.Diagnostics.empty());
  bool SawDeadStore = false;
  for (const Diagnostic &D : R.Diagnostics)
    if (D.Pass == "dead-store") {
      SawDeadStore = true;
      EXPECT_EQ(D.Sev, DiagSeverity::Warning);
    }
  EXPECT_TRUE(SawDeadStore);

  // --Werror promotes the warning.
  Req.Werror = true;
  R = An.lint(Req);
  for (const Diagnostic &D : R.Diagnostics) {
    if (D.Pass == "dead-store") {
      EXPECT_EQ(D.Sev, DiagSeverity::Error);
    }
  }

  // min-severity=error without promotion drops it; exit goes clean.
  Req.Werror = false;
  Req.MinSeverity = DiagSeverity::Error;
  R = An.lint(Req);
  for (const Diagnostic &D : R.Diagnostics)
    EXPECT_NE(D.Pass, "dead-store");
  EXPECT_EQ(R.ExitCode, 0);

  // Disabling the pass suppresses it at the source.
  Req.MinSeverity = DiagSeverity::Note;
  Req.Disabled = {"dead-store"};
  R = An.lint(Req);
  for (const Diagnostic &D : R.Diagnostics)
    EXPECT_NE(D.Pass, "dead-store");
}

TEST(AnalyzerTest, LintMissingFileIsUsageError) {
  api::Analyzer An;
  api::LintRequest Req;
  Req.Path = "/nonexistent/never.mpl";
  api::LintResponse R = An.lint(Req);
  EXPECT_EQ(R.ExitCode, SessionExitUsage);
  EXPECT_NE(R.Error.find("cannot read"), std::string::npos);
  EXPECT_TRUE(R.Diagnostics.empty());
}

} // namespace
