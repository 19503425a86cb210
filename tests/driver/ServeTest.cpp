//===- tests/driver/ServeTest.cpp - analysis daemon tests ------------------===//
//
// The `csdf serve` request processor: golden equivalence (a serve response's
// "result" is byte-identical to what one-shot `csdf analyze --format json`
// prints for the same input, over the whole examples/mpl corpus, including
// buggy and budget-tripped programs), the content-addressed LRU cache
// (hits return identical bytes, capacity evicts, options key separately),
// stats accounting, and loud rejection of malformed requests.
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"

#include "api/Csdf.h"
#include "support/Fault.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include <unistd.h>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

/// Feeds one request line, expecting no shutdown.
std::string request(ServeServer &Server, const std::string &Line) {
  bool Shutdown = false;
  std::string Resp = Server.handleLine(Line, Shutdown);
  EXPECT_FALSE(Shutdown) << Line;
  return Resp;
}

/// Parses a response line and returns the value (asserting well-formed).
JsonValue parsed(const std::string &Resp) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(Resp, V, Error)) << Resp << ": " << Error;
  return V;
}

/// The "result" member of a response, re-serialized from the raw line so
/// byte-level comparisons see exactly what the daemon sent. Extracted
/// textually: "result" is the last member before ",\"wall_us\":N}".
std::string rawResult(const std::string &Resp) {
  size_t Start = Resp.find("\"result\":");
  EXPECT_NE(Start, std::string::npos) << Resp;
  Start += std::string("\"result\":").size();
  size_t End = Resp.rfind(",\"wall_us\":");
  if (End == std::string::npos || End < Start)
    End = Resp.size() - 1; // cached payloads in tests without wall_us
  return Resp.substr(Start, End - Start);
}

std::string normalizeWallMs(std::string S) {
  return std::regex_replace(S, std::regex("\"wall_ms\": \\d+"),
                            "\"wall_ms\": 0");
}

std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  Out += '"';
  return Out;
}

//===--------------------------------------------------------------------===//
// Golden equivalence with one-shot analyze
//===--------------------------------------------------------------------===//

TEST(ServeTest, ResultsMatchOneShotAnalyzeOverExampleCorpus) {
  // The daemon is a cache in front of the CLI, never a different
  // analyzer: for every example program (clean, buggy, degraded), the
  // "result" object must match `csdf analyze --format json` byte for
  // byte, modulo the wall_ms measurement.
  ServeOptions SOpts;
  ServeServer Server(SOpts);

  std::vector<std::string> Files;
  for (const auto &Entry : fs::directory_iterator(CSDF_EXAMPLES_DIR))
    if (Entry.path().extension() == ".mpl")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 5u);

  for (const std::string &File : Files) {
    std::string Resp = request(
        Server, "{\"id\": 1, \"type\": \"analyze\", \"path\": " +
                    jsonQuote(File) + "}");
    JsonValue V = parsed(Resp);
    EXPECT_TRUE(V.get("ok")->asBool()) << Resp;
    EXPECT_FALSE(V.get("cached")->asBool()) << File;

    api::Analyzer OneShot; // cold, like the CLI
    api::AnalyzeRequest Req;
    Req.Path = File;
    api::AnalyzeResponse R = OneShot.analyze(Req);
    EXPECT_EQ(normalizeWallMs(rawResult(Resp)),
              normalizeWallMs(api::verdictJson(File, R)))
        << File;
  }
}

TEST(ServeTest, BudgetTrippedRequestsMatchOneShotAndCountTrips) {
  // A state-budget trip has a deterministic reason string, so even the
  // degraded verdict must match the one-shot run byte for byte — and bump
  // the budget_trips counter.
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  std::string File = std::string(CSDF_EXAMPLES_DIR) + "/stress_phases.mpl";
  std::string Line = "{\"id\": 7, \"type\": \"analyze\", \"path\": " +
                     jsonQuote(File) +
                     ", \"options\": {\"max_states\": 2}}";
  std::string Resp = request(Server, Line);

  api::Analyzer OneShot;
  api::AnalyzeRequest Req;
  Req.Path = File;
  Req.Options.MaxStates = 2;
  api::AnalyzeResponse R = OneShot.analyze(Req);
  ASSERT_TRUE(R.degraded());
  EXPECT_EQ(normalizeWallMs(rawResult(Resp)),
            normalizeWallMs(api::verdictJson(File, R)));
  EXPECT_EQ(Server.stats().BudgetTrips, 1u);

  // The tripped result is a legitimate, cacheable property of (source,
  // options): a repeat is a hit with identical bytes.
  std::string Again = request(Server, Line);
  EXPECT_TRUE(parsed(Again).get("cached")->asBool());
  EXPECT_EQ(rawResult(Again), rawResult(Resp));
}

//===--------------------------------------------------------------------===//
// Cache behaviour
//===--------------------------------------------------------------------===//

TEST(ServeTest, CacheHitsReturnIdenticalBytes) {
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  const std::string Line =
      "{\"id\": 1, \"type\": \"analyze\", \"path\": \"buf.mpl\", "
      "\"source\": \"x = 1;\\nprint x;\\n\"}";

  std::string First = request(Server, Line);
  EXPECT_FALSE(parsed(First).get("cached")->asBool());
  std::string Second = request(Server, Line);
  EXPECT_TRUE(parsed(Second).get("cached")->asBool());
  EXPECT_EQ(rawResult(Second), rawResult(First)); // wall_ms included

  EXPECT_EQ(Server.stats().Hits, 1u);
  EXPECT_EQ(Server.stats().Misses, 1u);
  EXPECT_EQ(Server.cacheEntries(), 1u);

  // Different options (or source) are different cache keys.
  std::string Other = request(
      Server, "{\"id\": 2, \"type\": \"analyze\", \"path\": \"buf.mpl\", "
              "\"source\": \"x = 1;\\nprint x;\\n\", "
              "\"options\": {\"client\": \"linear\"}}");
  EXPECT_FALSE(parsed(Other).get("cached")->asBool());
  EXPECT_EQ(Server.cacheEntries(), 2u);
}

TEST(ServeTest, DetectorTogglesAreCacheKeysNotStaleHits) {
  // Regression: toggling a detector must never replay a cached result that
  // was computed with the old setting. The wildcard-race program reports a
  // match-nondet bug by default; with check_match_nondet off the same
  // (path, source) pair must be a cache miss and carry no such bug.
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  const std::string Source =
      "if id == 0 then\\n  recv x <- any;\\n  recv y <- any;\\n"
      "  print x + y;\\nelse\\n  if id < 3 then\\n    send id -> 0;\\n"
      "  end\\nend\\n";
  const std::string Common =
      "\"type\": \"lint\", \"path\": \"race.mpl\", \"source\": \"" +
      Source + "\"";

  std::string On = request(Server, "{" + Common + "}");
  EXPECT_FALSE(parsed(On).get("cached")->asBool());
  EXPECT_NE(rawResult(On).find("match-nondet"), std::string::npos) << On;

  std::string Off = request(
      Server,
      "{" + Common + ", \"options\": {\"check_match_nondet\": false}}");
  EXPECT_FALSE(parsed(Off).get("cached")->asBool())
      << "detector toggle must miss the cache, not replay the old result";
  EXPECT_EQ(rawResult(Off).find("match-nondet"), std::string::npos) << Off;
  EXPECT_EQ(Server.cacheEntries(), 2u);

  // Both variants stay independently cached and replay their own bytes.
  std::string OnAgain = request(Server, "{" + Common + "}");
  EXPECT_TRUE(parsed(OnAgain).get("cached")->asBool());
  EXPECT_EQ(rawResult(OnAgain), rawResult(On));
  std::string OffAgain = request(
      Server,
      "{" + Common + ", \"options\": {\"check_match_nondet\": false}}");
  EXPECT_TRUE(parsed(OffAgain).get("cached")->asBool());
  EXPECT_EQ(rawResult(OffAgain), rawResult(Off));
}

TEST(ServeTest, LruEvictsAtCapacity) {
  ServeOptions SOpts;
  SOpts.CacheCapacity = 2;
  ServeServer Server(SOpts);
  auto Analyze = [&](const std::string &Name) {
    return request(Server,
                   "{\"type\": \"analyze\", \"path\": \"" + Name +
                       "\", \"source\": \"x = 1;\\nprint x;\\n\"}");
  };

  Analyze("a.mpl");
  Analyze("b.mpl");
  EXPECT_EQ(Server.cacheEntries(), 2u);
  EXPECT_EQ(Server.stats().Evictions, 0u);

  // Touch a (now MRU), insert c: b is the LRU victim.
  EXPECT_TRUE(parsed(Analyze("a.mpl")).get("cached")->asBool());
  Analyze("c.mpl");
  EXPECT_EQ(Server.cacheEntries(), 2u);
  EXPECT_EQ(Server.stats().Evictions, 1u);
  EXPECT_TRUE(parsed(Analyze("a.mpl")).get("cached")->asBool());
  EXPECT_FALSE(parsed(Analyze("b.mpl")).get("cached")->asBool()); // evicted

  // Capacity 0 disables caching entirely.
  ServeOptions Off;
  Off.CacheCapacity = 0;
  ServeServer NoCache(Off);
  bool Shutdown = false;
  NoCache.handleLine("{\"type\": \"analyze\", \"path\": \"a.mpl\", "
                     "\"source\": \"x = 1;\\nprint x;\\n\"}",
                     Shutdown);
  std::string Resp = NoCache.handleLine(
      "{\"type\": \"analyze\", \"path\": \"a.mpl\", "
      "\"source\": \"x = 1;\\nprint x;\\n\"}",
      Shutdown);
  EXPECT_FALSE(parsed(Resp).get("cached")->asBool());
  EXPECT_EQ(NoCache.cacheEntries(), 0u);
}

TEST(ServeTest, UnreadableFilesAreNotCached) {
  // A missing file yields a usage-error verdict but is never cached: the
  // same request must succeed once the file appears.
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  fs::path P = fs::temp_directory_path() /
               ("csdf-serve-test-" + std::to_string(::getpid()) + ".mpl");
  fs::remove(P);

  std::string Line = "{\"type\": \"analyze\", \"path\": " +
                     jsonQuote(P.string()) + "}";
  std::string Resp = request(Server, Line);
  JsonValue V = parsed(Resp);
  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_NE(rawResult(Resp).find("usage-error"), std::string::npos);
  EXPECT_EQ(Server.cacheEntries(), 0u);

  std::ofstream(P) << "x = 1;\nprint x;\n";
  Resp = request(Server, Line);
  EXPECT_NE(rawResult(Resp).find("\"verdict\": \"complete\""),
            std::string::npos);
  fs::remove(P);
}

//===--------------------------------------------------------------------===//
// Lint requests
//===--------------------------------------------------------------------===//

TEST(ServeTest, LintRequestsCarryDiagnosticsAndCache) {
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  const std::string Line =
      "{\"type\": \"lint\", \"path\": \"l.mpl\", "
      "\"source\": \"x = 1;\\nx = 2;\\nprint x;\\n\"}";

  std::string Resp = request(Server, Line);
  JsonValue V = parsed(Resp);
  EXPECT_TRUE(V.get("ok")->asBool());
  const JsonValue *Result = V.get("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->get("exit_code")->asInt(), 1);
  ASSERT_TRUE(Result->get("diagnostics")->isArray());
  bool SawDeadStore = false;
  for (const JsonValue &D : Result->get("diagnostics")->asArray())
    if (D.get("rule") && D.get("rule")->asString() == "csdf.dead-store")
      SawDeadStore = true;
  EXPECT_TRUE(SawDeadStore) << Resp;

  EXPECT_TRUE(parsed(request(Server, Line)).get("cached")->asBool());

  // Lint policy is part of the key: disabling the pass is a different
  // request with a different result.
  std::string Disabled = request(
      Server, "{\"type\": \"lint\", \"path\": \"l.mpl\", "
              "\"source\": \"x = 1;\\nx = 2;\\nprint x;\\n\", "
              "\"disable\": [\"dead-store\"]}");
  JsonValue DV = parsed(Disabled);
  EXPECT_FALSE(DV.get("cached")->asBool());
  EXPECT_EQ(DV.get("result")->get("exit_code")->asInt(), 0);
}

//===--------------------------------------------------------------------===//
// Disk-store tier: restart warmness, quarantine, stats
//===--------------------------------------------------------------------===//

/// A scoped store directory + fault disarm for the disk-tier tests.
struct ScopedStoreDir {
  fs::path Dir;
  ScopedStoreDir() {
    Dir = fs::temp_directory_path() /
          ("csdf-serve-store-" + std::to_string(::getpid()) + "-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(Dir);
  }
  ~ScopedStoreDir() {
    fs::remove_all(Dir);
    std::string Error;
    FaultInjector::global().configure("", Error);
  }
};

TEST(ServeTest, DiskTierServesByteIdenticalResultsAcrossRestart) {
  // The point of --store-dir: a fresh daemon (fresh memory LRU, fresh
  // analyzer) over the same store directory answers from disk with the
  // exact bytes the first daemon computed.
  ScopedStoreDir S;
  ServeOptions SOpts;
  SOpts.StoreDir = S.Dir.string();

  const std::string LineA =
      "{\"type\": \"analyze\", \"path\": \"a.mpl\", "
      "\"source\": \"x = 1;\\nprint x;\\n\"}";
  const std::string LineB =
      "{\"type\": \"lint\", \"path\": \"b.mpl\", "
      "\"source\": \"x = 1;\\nx = 2;\\nprint x;\\n\"}";

  std::string FirstA, FirstB;
  {
    ServeServer Server(SOpts);
    ASSERT_TRUE(Server.storeError().empty()) << Server.storeError();
    FirstA = request(Server, LineA);
    FirstB = request(Server, LineB);
    EXPECT_FALSE(parsed(FirstA).get("cached")->asBool());
    EXPECT_EQ(Server.stats().DiskWrites, 2u);
  } // "kill": the daemon and its memory cache are gone

  ServeServer Restarted(SOpts);
  std::string SecondA = request(Restarted, LineA);
  std::string SecondB = request(Restarted, LineB);
  EXPECT_TRUE(parsed(SecondA).get("cached")->asBool());
  EXPECT_EQ(parsed(SecondA).get("tier")->asString(), "disk");
  EXPECT_EQ(rawResult(SecondA), rawResult(FirstA));
  EXPECT_EQ(rawResult(SecondB), rawResult(FirstB));
  EXPECT_EQ(Restarted.stats().DiskHits, 2u);
  EXPECT_EQ(Restarted.stats().Misses, 0u); // no re-analysis

  // The disk hit backfilled the memory tier: a repeat is a memory hit.
  std::string ThirdA = request(Restarted, LineA);
  EXPECT_EQ(parsed(ThirdA).get("tier")->asString(), "memory");
  EXPECT_EQ(rawResult(ThirdA), rawResult(FirstA));
}

TEST(ServeTest, CorruptedStoreEntryIsQuarantinedAndReanalyzed) {
  ScopedStoreDir S;
  ServeOptions SOpts;
  SOpts.StoreDir = S.Dir.string();
  const std::string Line =
      "{\"type\": \"analyze\", \"path\": \"c.mpl\", "
      "\"source\": \"x = 3;\\nprint x;\\n\"}";

  std::string First;
  {
    ServeServer Server(SOpts);
    First = request(Server, Line);
  }

  // Corrupt the one record on disk (bit flip in the payload).
  fs::path Rec;
  for (const auto &E : fs::directory_iterator(S.Dir))
    if (E.path().extension() == ".rec")
      Rec = E.path();
  ASSERT_FALSE(Rec.empty());
  {
    std::ifstream In(Rec, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Bytes[Bytes.size() - 2] ^= 0x01;
    std::ofstream(Rec, std::ios::binary | std::ios::trunc) << Bytes;
  }

  ServeServer Restarted(SOpts);
  std::string Second = request(Restarted, Line);
  // Never served: the corrupt record was quarantined and the request
  // re-analyzed — landing on the same (deterministic) result bytes, up to
  // the analysis's own wall-time measurement, which both must carry.
  EXPECT_FALSE(parsed(Second).get("cached")->asBool());
  for (const std::string *Resp : {&First, &Second}) {
    JsonValue Result = parsed(rawResult(*Resp));
    const JsonValue *WallMs = Result.get("wall_ms");
    ASSERT_NE(WallMs, nullptr) << *Resp;
    ASSERT_TRUE(WallMs->isInt()) << *Resp;
    EXPECT_GE(WallMs->asInt(), 0) << *Resp;
  }
  EXPECT_EQ(normalizeWallMs(rawResult(Second)),
            normalizeWallMs(rawResult(First)));
  EXPECT_EQ(Restarted.stats().DiskQuarantined, 1u);
  EXPECT_TRUE(fs::exists(S.Dir / "quarantine"));
  // The re-analysis re-populated the store: next restart hits again.
  ServeServer Third(SOpts);
  EXPECT_TRUE(parsed(request(Third, Line)).get("cached")->asBool());
}

TEST(ServeTest, StoreWriteFaultsDegradeToUncachedNeverFail) {
  // With every store write failing, the daemon still answers correctly —
  // it just stays cold on disk. Write failures are counted distinctly.
  ScopedStoreDir S;
  std::string Error;
  ASSERT_TRUE(FaultInjector::global().configure("store-write-fail", Error));
  ServeOptions SOpts;
  SOpts.StoreDir = S.Dir.string();
  ServeServer Server(SOpts);
  std::string Resp = request(Server,
                             "{\"type\": \"analyze\", \"path\": \"f.mpl\", "
                             "\"source\": \"x = 1;\\nprint x;\\n\"}");
  EXPECT_TRUE(parsed(Resp).get("ok")->asBool());
  EXPECT_EQ(Server.stats().DiskWriteFailures, 1u);
  EXPECT_EQ(Server.stats().DiskWrites, 0u);
  // Memory tier still works.
  EXPECT_TRUE(
      parsed(request(Server,
                     "{\"type\": \"analyze\", \"path\": \"f.mpl\", "
                     "\"source\": \"x = 1;\\nprint x;\\n\"}"))
          .get("cached")
          ->asBool());
}

TEST(ServeTest, StatsSeparateMemoryAndDiskTiers) {
  ScopedStoreDir S;
  ServeOptions SOpts;
  SOpts.StoreDir = S.Dir.string();
  const std::string Line =
      "{\"type\": \"analyze\", \"path\": \"t.mpl\", "
      "\"source\": \"x = 9;\\nprint x;\\n\"}";
  {
    ServeServer Server(SOpts);
    request(Server, Line); // miss -> analyze -> disk write
    request(Server, Line); // memory hit
    const ServeStats &St = Server.stats();
    EXPECT_TRUE(St.StoreEnabled);
    EXPECT_EQ(St.Hits, 1u);
    EXPECT_EQ(St.Misses, 1u);
    EXPECT_EQ(St.DiskHits, 0u);
    EXPECT_EQ(St.DiskMisses, 1u); // probed before the cold analyze
    EXPECT_EQ(St.DiskWrites, 1u);
    EXPECT_GT(St.StoreLiveBytes, 0u);
    EXPECT_EQ(St.StoreEntries, 1u);
  }
  ServeServer Restarted(SOpts);
  request(Restarted, Line); // disk hit
  request(Restarted, Line); // memory hit (backfilled)
  const ServeStats &St = Restarted.stats();
  EXPECT_EQ(St.DiskHits, 1u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 0u);

  // The JSON rendering carries the distinct counters.
  bool Shutdown = false;
  std::string StatsResp =
      Restarted.handleLine("{\"type\": \"stats\"}", Shutdown);
  JsonValue V = parsed(StatsResp);
  EXPECT_EQ(V.get("stats")->get("disk_hits")->asInt(), 1);
  EXPECT_EQ(V.get("stats")->get("store_enabled")->asBool(), true);
  EXPECT_EQ(V.get("stats")->get("disk_quarantined")->asInt(), 0);
}

TEST(ServeTest, StoreOpenFailureIsLoudNotSilent) {
  ScopedStoreDir S;
  std::string Error;
  ASSERT_TRUE(FaultInjector::global().configure("store-open-fail:1", Error));
  ServeOptions SOpts;
  SOpts.StoreDir = S.Dir.string();
  ServeServer Server(SOpts);
  EXPECT_FALSE(Server.storeError().empty());
}

//===--------------------------------------------------------------------===//
// Protocol robustness, stats, shutdown
//===--------------------------------------------------------------------===//

TEST(ServeTest, GarbageTruncatedAndOversizedRequestsKeepTheDaemonAlive) {
  // The satellite contract: a bad line — garbage, truncated JSON, or an
  // oversized request — yields a structured `parse-error` response and
  // the daemon keeps serving.
  ServeOptions SOpts;
  ServeServer Server(SOpts);

  auto ExpectParseError = [&](const std::string &Line) {
    std::string Resp = request(Server, Line);
    JsonValue V = parsed(Resp);
    EXPECT_FALSE(V.get("ok")->asBool()) << Resp;
    EXPECT_EQ(V.get("code")->asString(), "parse-error") << Resp;
    EXPECT_FALSE(V.get("retryable")->asBool()) << Resp;
  };

  ExpectParseError("garbage \x01\x02 not json");
  ExpectParseError("{\"type\": \"analyze\", \"path\""); // truncated line
  ExpectParseError("{\"type\": \"analyze\", \"source\": \"x = 1;");

  // An over-8MB request is rejected before the parser touches it.
  std::string Huge = "{\"type\": \"analyze\", \"source\": \"";
  Huge += std::string(9 * 1024 * 1024, 'x');
  Huge += "\"}";
  std::string Resp = request(Server, Huge);
  JsonValue V = parsed(Resp);
  EXPECT_EQ(V.get("code")->asString(), "parse-error");
  EXPECT_NE(V.get("error")->asString().find("exceeds"), std::string::npos);

  // Envelope-level rejections carry the invalid-request code.
  std::string Bad = request(Server, "{\"type\": \"frobnicate\"}");
  EXPECT_EQ(parsed(Bad).get("code")->asString(), "invalid-request");

  // And the daemon is still alive and serving.
  std::string Good = request(Server,
                             "{\"type\": \"analyze\", \"path\": \"a.mpl\", "
                             "\"source\": \"x = 1;\\nprint x;\\n\"}");
  EXPECT_TRUE(parsed(Good).get("ok")->asBool());
  EXPECT_EQ(Server.stats().Errors, 5u);
}

TEST(ServeTest, OverloadedResponseIsStructuredAndRetryable) {
  JsonValue V = parsed(overloadedResponse(50));
  EXPECT_FALSE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("code")->asString(), "overloaded");
  EXPECT_TRUE(V.get("retryable")->asBool());
  EXPECT_EQ(V.get("retry_after_ms")->asInt(), 50);
}

TEST(ServeTest, MalformedAndUnknownRequestsAreRejectedLoudly) {
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  auto ExpectError = [&](const std::string &Line, const char *Needle) {
    std::string Resp = request(Server, Line);
    JsonValue V = parsed(Resp);
    EXPECT_FALSE(V.get("ok")->asBool()) << Resp;
    EXPECT_NE(V.get("error")->asString().find(Needle), std::string::npos)
        << Resp;
  };
  ExpectError("not json", "malformed request");
  ExpectError("[1, 2]", "must be a JSON object");
  ExpectError("{\"id\": 9}", "no type");
  ExpectError("{\"type\": \"frobnicate\"}", "unknown request type");
  ExpectError("{\"type\": \"analyze\"}", "needs a path or a source");
  ExpectError("{\"type\": \"analyze\", \"path\": \"x\", \"bogus\": 1}",
              "unknown request field");
  ExpectError("{\"type\": \"analyze\", \"path\": \"x\", "
              "\"options\": {\"deadline\": 5}}",
              "unknown option");
  ExpectError("{\"type\": \"lint\", \"path\": \"x\", "
              "\"disable\": [\"no-such-pass\"]}",
              "unknown lint pass");
  ExpectError("{\"type\": \"lint\", \"path\": \"x\", "
              "\"min_severity\": \"loud\"}",
              "min_severity");
  EXPECT_EQ(Server.stats().Errors, 9u);

  // The id is echoed back even on errors, whatever JSON value it was.
  std::string Resp = request(Server, "{\"id\": \"abc\", \"x\": 1}");
  EXPECT_EQ(parsed(Resp).get("id")->asString(), "abc");
}

TEST(ServeTest, StatsReportCountsAndShutdownStopsTheLoop) {
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  std::istringstream In(
      "{\"type\": \"analyze\", \"path\": \"a.mpl\", "
      "\"source\": \"x = 1;\\nprint x;\\n\"}\n"
      "\n" // blank lines are skipped
      "{\"type\": \"analyze\", \"path\": \"a.mpl\", "
      "\"source\": \"x = 1;\\nprint x;\\n\"}\n"
      "{\"id\": 42, \"type\": \"stats\"}\n"
      "{\"type\": \"shutdown\"}\n"
      "{\"type\": \"analyze\", \"path\": \"never-reached.mpl\"}\n");
  std::ostringstream Out;
  runServeLoop(Server, In, Out);

  std::vector<std::string> Lines;
  std::istringstream Resp(Out.str());
  for (std::string L; std::getline(Resp, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 4u); // nothing after shutdown

  JsonValue Stats = parsed(Lines[2]);
  EXPECT_EQ(Stats.get("id")->asInt(), 42);
  const JsonValue *S = Stats.get("stats");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->get("requests")->asInt(), 3); // 2 analyze + stats itself
  EXPECT_EQ(S->get("analyze_requests")->asInt(), 2);
  EXPECT_EQ(S->get("hits")->asInt(), 1);
  EXPECT_EQ(S->get("misses")->asInt(), 1);
  EXPECT_DOUBLE_EQ(S->get("hit_rate")->asDouble(), 0.5);
  EXPECT_EQ(S->get("cache_entries")->asInt(), 1);
  EXPECT_GE(S->get("wall_us_total")->asInt(), 0);

  JsonValue Bye = parsed(Lines[3]);
  EXPECT_TRUE(Bye.get("ok")->asBool());
  EXPECT_TRUE(Bye.get("shutting_down")->asBool());
}

TEST(ServeTest, EveryNonErrorResponseCarriesWallTime) {
  ServeOptions SOpts;
  ServeServer Server(SOpts);
  std::string Resp = request(
      Server, "{\"type\": \"analyze\", \"path\": \"a.mpl\", "
              "\"source\": \"x = 1;\\nprint x;\\n\"}");
  JsonValue V = parsed(Resp);
  const JsonValue *Wall = V.get("wall_us");
  ASSERT_NE(Wall, nullptr);
  EXPECT_GE(Wall->asInt(), 0);
}

} // namespace
