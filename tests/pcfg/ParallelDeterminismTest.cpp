//===- tests/pcfg/ParallelDeterminismTest.cpp - Concurrent-session determinism -===//
//
// Section IX(5)'s parallelism is realized across sessions: `csdf batch
// --mode threads` runs whole analyses side by side on a ThreadPool, all
// sharing one cross-session ClosureMemo. Its guarantee: a session's
// AnalysisResult is bit-identical to the same analysis run alone, whatever
// the worker count and whatever runs beside it. This sweep serializes the
// *entire* result (matches, facts, bugs, snapshots, verdict, and
// exploration statistics) and compares concurrent sessions against the
// isolated baseline over the whole corpus, including the intentionally
// buggy programs and a Top-driving one.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "numeric/ConstraintGraph.h"
#include "pcfg/Engine.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace csdf;

namespace {

/// Serializes everything deterministic about \p R (all fields except
/// Seconds) into one comparable string.
std::string fingerprint(const AnalysisResult &R) {
  std::ostringstream Os;
  Os << "converged=" << R.Converged << "\n";
  Os << "top-reason=" << R.TopReason << "\n";
  Os << "outcome=" << R.Outcome.str() << "\n";
  Os << "outcome-reason=" << R.Outcome.Reason << "\n";
  Os << "outcome-config=" << R.Outcome.Configuration << "\n";
  for (const MatchRecord &M : R.Matches)
    Os << "match " << M.SendNode << "->" << M.RecvNode << " "
       << M.SenderRange << " " << M.ReceiverRange << "\n";
  for (const PrintFact &F : R.PrintFacts) {
    Os << "print " << F.Node << " " << F.SetRange << " ";
    if (F.Value)
      Os << *F.Value;
    else
      Os << "?";
    Os << "\n";
  }
  for (const AnalysisBug &B : R.Bugs)
    Os << "bug " << analysisBugKindName(B.TheKind) << " node=" << B.Node
       << " loc=" << B.Loc.str() << " " << B.Detail << "\n";
  for (const auto &Snapshot : R.FinalSnapshots) {
    Os << "snapshot";
    for (const auto &[Var, Val] : Snapshot) {
      Os << " " << Var << "=";
      if (Val)
        Os << *Val;
      else
        Os << "?";
    }
    Os << "\n";
  }
  Os << "states=" << R.StatesExplored << " configs=" << R.ConfigsVisited
     << " max-sets=" << R.MaxSetsSeen << "\n";
  return Os.str();
}

struct PresetCase {
  const char *Name;
  AnalysisOptions Opts;
};

std::vector<PresetCase> presets() {
  return {{"simple", AnalysisOptions::simpleSymbolic()},
          {"cartesian", AnalysisOptions::cartesian()},
          {"sectionx", AnalysisOptions::sectionX()}};
}

/// The full corpus: every well-formed pattern plus the intentionally buggy
/// programs (leak, deadlock, tag mismatch) and the Top-driving ring shift,
/// so determinism holds on failing and degraded runs too.
std::vector<corpus::NamedProgram> sweepPrograms() {
  std::vector<corpus::NamedProgram> Progs = corpus::allPatterns();
  Progs.push_back({"message-leak", corpus::messageLeak()});
  Progs.push_back({"head-to-head-deadlock", corpus::headToHeadDeadlock()});
  Progs.push_back({"tag-mismatch", corpus::tagMismatch()});
  Progs.push_back({"ring-shift", corpus::ringShift()});
  Progs.push_back({"buffer-race", corpus::bufferRace()});
  Progs.push_back({"request-leak", corpus::requestLeak()});
  Progs.push_back({"wildcard-race", corpus::wildcardRace()});
  return Progs;
}

/// Runs \p Opts on \p Graph as one session on \p Pool, sharing \p Memo the
/// way batch threads mode does.
std::future<std::string> submitSession(ThreadPool &Pool, const Cfg &Graph,
                                       AnalysisOptions Opts,
                                       std::shared_ptr<ClosureMemo> Memo) {
  Opts.SharedMemo = std::move(Memo);
  return Pool.submit([&Graph, Opts] {
    return fingerprint(analyzeProgram(Graph, Opts));
  });
}

class ParallelDeterminism
    : public ::testing::TestWithParam<corpus::NamedProgram> {};

TEST_P(ParallelDeterminism, IdenticalResultAtAnyThreadCount) {
  const corpus::NamedProgram &Prog = GetParam();
  Program P = parseProgramOrDie(Prog.Source);
  Cfg Graph = buildCfg(P);

  std::vector<PresetCase> Presets = presets();
  std::vector<std::string> Isolated;
  for (const PresetCase &Preset : Presets)
    Isolated.push_back(fingerprint(analyzeProgram(Graph, Preset.Opts)));

  for (unsigned Threads : {2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    auto Memo = std::make_shared<ClosureMemo>(/*CrossSession=*/true);
    // Two sessions per preset, all in flight at once on one memo.
    std::vector<std::future<std::string>> Runs;
    for (int Copy = 0; Copy < 2; ++Copy)
      for (const PresetCase &Preset : Presets)
        Runs.push_back(submitSession(Pool, Graph, Preset.Opts, Memo));
    for (size_t I = 0; I < Runs.size(); ++I)
      EXPECT_EQ(Isolated[I % Presets.size()], Runs[I].get())
          << Prog.Name << " preset=" << Presets[I % Presets.size()].Name
          << " diverges at threads=" << Threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelDeterminism,
                         ::testing::ValuesIn(sweepPrograms()),
                         [](const auto &Info) {
                           std::string Name = Info.param.Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

// Repeated rounds of concurrent sessions on one warm memo must agree with
// each other, not just with the isolated baseline — catches
// scheduling-dependent flakiness that a single lucky round would hide.
TEST(ParallelDeterminismTest, RepeatedRunsAreStable) {
  Program P = parseProgramOrDie(corpus::exchangeWithRoot());
  Cfg Graph = buildCfg(P);
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  ThreadPool Pool(4);
  auto Memo = std::make_shared<ClosureMemo>(/*CrossSession=*/true);

  std::string First = fingerprint(analyzeProgram(Graph, Opts));
  for (int Round = 0; Round < 5; ++Round) {
    std::vector<std::future<std::string>> Runs;
    for (int I = 0; I < 4; ++I)
      Runs.push_back(submitSession(Pool, Graph, Opts, Memo));
    for (std::future<std::string> &R : Runs)
      EXPECT_EQ(First, R.get()) << "round " << Round;
  }
}

} // namespace
