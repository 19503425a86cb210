//===- tests/pcfg/EngineRobustnessTest.cpp - Engine edge cases -----------------===//

#include "pcfg/Engine.h"

#include "cfg/CfgBuilder.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

struct Built {
  Program Prog;
  Cfg Graph;
};

Built buildFrom(const std::string &Source) {
  Built B;
  B.Prog = parseProgramOrDie(Source);
  B.Graph = buildCfg(B.Prog);
  return B;
}

TEST(EngineRobustnessTest, AnalysisIsDeterministic) {
  for (const auto &[Name, Source] : corpus::allPatterns()) {
    Built B = buildFrom(Source);
    AnalysisResult R1 = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
    AnalysisResult R2 = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
    EXPECT_EQ(R1.Converged, R2.Converged) << Name;
    EXPECT_EQ(R1.Matches, R2.Matches) << Name;
    EXPECT_EQ(R1.StatesExplored, R2.StatesExplored) << Name;
    EXPECT_EQ(R1.PrintFacts, R2.PrintFacts) << Name;
  }
}

TEST(EngineRobustnessTest, StateBudgetYieldsTopNotHang) {
  Built B = buildFrom(corpus::exchangeWithRoot());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.MaxStates = 3;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_NE(R.TopReason.find("budget"), std::string::npos);
}

TEST(EngineRobustnessTest, ProcSetBoundYieldsTop) {
  Built B = buildFrom(corpus::exchangeWithRoot());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.MaxProcSets = 1;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
}

TEST(EngineRobustnessTest, InFlightBoundYieldsTop) {
  // With buffering capped at 1, the transpose still works (one pending),
  // but a two-send program cannot buffer both.
  Built B = buildFrom("x = 1;\n"
                      "send x -> (id + 1) % np;\n"
                      "send x -> (id + 2) % np;\n"
                      "recv y <- (id + np - 1) % np;\n"
                      "recv z <- (id + np - 2) % np;\n");
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.MaxInFlight = 1;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
}

TEST(EngineRobustnessTest, MinProcsIsRespected) {
  // With MinProcs = 1, splitting [0..np-1] on id == 0 cannot prove the
  // else-part non-empty — it is kept possibly-empty and the analysis
  // still converges with the same topology.
  Built B = buildFrom(corpus::figure2Exchange());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.MinProcs = 4;
  AnalysisResult R4 = analyzeProgram(B.Graph, Opts);
  EXPECT_TRUE(R4.Converged);
}

TEST(EngineRobustnessTest, WhileLoopWithoutCommConverges) {
  Built B = buildFrom("x = 0; while x < 100 do x = x + 1; end print x;");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Matches.empty());
}

TEST(EngineRobustnessTest, NestedLoopsConverge) {
  Built B = buildFrom("s = 0;\n"
                      "for i = 0 to 3 do\n"
                      "  for j = 0 to 3 do\n"
                      "    s = s + 1;\n"
                      "  end\n"
                      "end\n"
                      "print s;");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_TRUE(R.Converged);
}

TEST(EngineRobustnessTest, BranchOnInputForksBothWays) {
  // Nondeterministic data flow: both branch outcomes must be covered.
  Built B = buildFrom(R"mpl(
c = input();
if id == 0 then
  x = 1;
  send x -> 1;
elif id == 1 then
  recv y <- 0;
  if c > 0 then
    print y;
  else
    print 0 - y;
  end
end
)mpl");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged);
  // Both prints appear in the facts.
  std::set<CfgNodeId> PrintNodes;
  for (const PrintFact &F : R.PrintFacts)
    PrintNodes.insert(F.Node);
  EXPECT_EQ(PrintNodes.size(), 2u);
  EXPECT_EQ(R.matchedNodePairs().size(), 1u);
}

TEST(EngineRobustnessTest, BranchOnNonUniformVarOfMultiSetTopsOut) {
  // x = id on a multi-process set, then branching on x: the set would
  // split data-dependently, which the framework cannot do exactly.
  Built B = buildFrom(R"mpl(
x = id * 2;
if x > 4 then
  skip;
end
)mpl");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_FALSE(R.Converged);
}

TEST(EngineRobustnessTest, UniformDataBranchOnMultiSetIsFine) {
  Built B = buildFrom(R"mpl(
x = 7;
if x > 4 then
  print x;
end
)mpl");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged);
  bool Proved = false;
  for (const PrintFact &F : R.PrintFacts)
    Proved |= F.Value == 7 && F.SetRange == "[0..np-1]";
  EXPECT_TRUE(Proved);
}

TEST(EngineRobustnessTest, ElifChainSplitsThreeWays) {
  Built B = buildFrom(R"mpl(
if id == 0 then
  print 1;
elif id == 1 then
  print 2;
else
  print 3;
end
)mpl");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged);
  std::set<std::string> Ranges;
  for (const PrintFact &F : R.PrintFacts)
    Ranges.insert(F.SetRange);
  EXPECT_TRUE(Ranges.count("[0..0]"));
  EXPECT_TRUE(Ranges.count("[1..1]"));
  EXPECT_TRUE(Ranges.count("[2..np-1]"));
}

//===--------------------------------------------------------------------===//
// Structured outcomes: every budget give-up names which limit tripped and
// preserves the partial results computed so far.
//===--------------------------------------------------------------------===//

TEST(EngineRobustnessTest, StateBudgetReportsStructuredVerdict) {
  Built B = buildFrom(corpus::exchangeWithRoot());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.MaxStates = 3;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Verdict, AnalysisVerdict::DegradedToTop);
  EXPECT_EQ(R.Outcome.Budget, BudgetKind::States);
  EXPECT_EQ(R.Outcome.str(), "degraded-to-top(states)");
  // Partial results survive the give-up.
  EXPECT_GT(R.StatesExplored, 0u);
}

TEST(EngineRobustnessTest, VariantBudgetNamesOffendingConfiguration) {
  // A zero cap rejects the very first variant stored at any configuration
  // — a deterministic trip that must surface the structured verdict with
  // the offending configuration key attached.
  Built B = buildFrom(corpus::figure2Exchange());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.MaxVariantsPerConfig = 0;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Verdict, AnalysisVerdict::DegradedToTop);
  EXPECT_EQ(R.Outcome.Budget, BudgetKind::Variants);
  EXPECT_FALSE(R.Outcome.Configuration.empty());
  EXPECT_NE(R.Outcome.Reason.find("unjoinable"), std::string::npos);
  EXPECT_EQ(R.Outcome.str(), "degraded-to-top(variants)");
}

TEST(EngineRobustnessTest, InFlightBudgetReportsStructuredVerdict) {
  Built B = buildFrom("x = 1;\n"
                      "send x -> (id + 1) % np;\n"
                      "send x -> (id + 2) % np;\n"
                      "recv y <- (id + np - 1) % np;\n"
                      "recv z <- (id + np - 2) % np;\n");
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.MaxInFlight = 1;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Verdict, AnalysisVerdict::DegradedToTop);
  EXPECT_EQ(R.Outcome.Budget, BudgetKind::InFlight);
}

TEST(EngineRobustnessTest, PrecisionGiveUpHasNoBudgetKind) {
  // ringShift tops out for precision reasons, not because of a budget.
  Built B = buildFrom(corpus::ringShift());
  AnalysisResult R =
      analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Verdict, AnalysisVerdict::DegradedToTop);
  EXPECT_EQ(R.Outcome.Budget, BudgetKind::None);
  EXPECT_EQ(R.Outcome.str(), "degraded-to-top");
}

TEST(EngineRobustnessTest, CompleteAnalysisReportsCompleteOutcome) {
  Built B = buildFrom(corpus::figure2Exchange());
  AnalysisResult R =
      analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged);
  EXPECT_TRUE(R.Outcome.complete());
  EXPECT_EQ(R.Outcome.str(), "complete");
}

namespace {

/// Many sequential transpose phases: enough engine steps and prover work
/// that a cooperative budget gets polled past its sampling interval.
std::string manyPhases(int K) {
  std::string S = "assume np == nrows * nrows;\n";
  for (int I = 0; I < K; ++I) {
    std::string N = std::to_string(I);
    S += "x" + N + " = id + " + N + ";\n";
    S += "send x" + N + " -> (id % nrows) * nrows + id / nrows;\n";
    S += "recv y" + N + " <- (id % nrows) * nrows + id / nrows;\n";
  }
  return S;
}

} // namespace

TEST(EngineRobustnessTest, DeadlineKillSwitchDegradesWithPartialResults) {
  Built B = buildFrom(manyPhases(400));
  AnalysisBudget Budget;
  Budget.DeadlineMs = 1;
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.Budget = &Budget;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Verdict, AnalysisVerdict::DegradedToTop);
  EXPECT_EQ(R.Outcome.Budget, BudgetKind::Deadline);
  EXPECT_EQ(R.Outcome.str(), "degraded-to-top(deadline)");
  // Progress made before the deadline is preserved, and the offending
  // configuration is recorded.
  EXPECT_GT(R.StatesExplored, 0u);
  EXPECT_FALSE(R.Outcome.Configuration.empty());
}

TEST(EngineRobustnessTest, ProverStepBudgetDegradesNotAborts) {
  Built B = buildFrom(corpus::transposeSquare());
  AnalysisBudget Budget;
  Budget.MaxProverSteps = 1;
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.Budget = &Budget;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Verdict, AnalysisVerdict::DegradedToTop);
  EXPECT_EQ(R.Outcome.Budget, BudgetKind::ProverSteps);
}

TEST(EngineRobustnessTest, BudgetedRunMatchesUnbudgetedWhenNothingTrips) {
  // A generous budget must not change any analysis result.
  for (const auto &[Name, Source] : corpus::allPatterns()) {
    Built B = buildFrom(Source);
    AnalysisResult Plain =
        analyzeProgram(B.Graph, AnalysisOptions::cartesian());
    AnalysisBudget Budget;
    Budget.DeadlineMs = 60000;
    Budget.MaxMemoryMb = 1024;
    Budget.MaxProverSteps = 100000000;
    AnalysisOptions Opts = AnalysisOptions::cartesian();
    Opts.Budget = &Budget;
    AnalysisResult Budgeted = analyzeProgram(B.Graph, Opts);
    EXPECT_EQ(Plain.Converged, Budgeted.Converged) << Name;
    EXPECT_EQ(Plain.Matches, Budgeted.Matches) << Name;
    EXPECT_EQ(Plain.StatesExplored, Budgeted.StatesExplored) << Name;
    EXPECT_EQ(Plain.Outcome.str(), Budgeted.Outcome.str()) << Name;
  }
}

namespace {

/// What one cartesian run reports: prover steps charged, matches, states
/// and the outcome (plus the offending configuration when degraded).
struct RunCounts {
  std::uint64_t Limit; ///< MaxProverSteps (0 = unlimited).
  std::uint64_t ProverSteps;
  std::size_t Matches;
  unsigned StatesExplored;
  std::string Outcome;
  std::string Configuration;

  bool operator==(const RunCounts &O) const {
    return Limit == O.Limit && ProverSteps == O.ProverSteps &&
           Matches == O.Matches && StatesExplored == O.StatesExplored &&
           Outcome == O.Outcome && Configuration == O.Configuration;
  }
};

std::ostream &operator<<(std::ostream &OS, const RunCounts &C) {
  return OS << "{" << C.Limit << ", " << C.ProverSteps << ", " << C.Matches
            << ", " << C.StatesExplored << ", \"" << C.Outcome << "\", \""
            << C.Configuration << "\"}";
}

RunCounts countRun(const std::string &Source,
                   std::uint64_t MaxProverSteps = 0) {
  Built B = buildFrom(Source);
  AnalysisBudget Budget; // unlimited unless MaxProverSteps: accounting only
  Budget.MaxProverSteps = MaxProverSteps;
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.Budget = &Budget;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  return {MaxProverSteps,     Budget.proverStepsUsed(),
          R.Matches.size(),   R.StatesExplored,
          R.Outcome.str(),    R.Outcome.Configuration};
}

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(EngineRobustnessTest, ProverStepsMatchesAndOutcomesArePinned) {
  // Recorded before the HSM match memo existed: a memo hit must charge
  // exactly the steps the proof it replays took, and change nothing else.
  // Columns: name, prover steps, matches, states explored, outcome.
  // The four loop kernels that widen take 3-5 more states than when the
  // widened graph was stored unclosed: the stored closure now keeps
  // derived bounds (e.g. `p0.i <= p0.x - 39` with `p0.x == 42`), which
  // climb through the thresholds -1, 0, 1 one widening at a time.
  struct Row {
    const char *Name;
    std::uint64_t ProverSteps;
    std::size_t Matches;
    unsigned StatesExplored;
    const char *Outcome;
  };
  static const Row Expected[] = {
      {"figure2-exchange", 0, 2, 6, "complete"},
      {"gather-to-root", 0, 2, 8, "complete"},
      {"fan-out-broadcast", 0, 5, 24, "complete"},
      {"exchange-with-root", 0, 5, 40, "complete"},
      {"transpose-square", 3, 1, 2, "complete"},
      {"transpose-rect", 6, 1, 2, "complete"},
      {"nascg-transpose", 9, 2, 6, "complete"},
      {"neighbor-shift", 2, 2, 7, "degraded-to-top"},
      {"neighbor-shift-left", 0, 2, 8, "degraded-to-top"},
      {"neighbor-exchange-1d", 4, 2, 9, "degraded-to-top"},
      {"pairwise-exchange", 0, 0, 1, "degraded-to-top"},
      {"vshift-2d", 0, 0, 1, "degraded-to-top"},
      {"broadcast-then-gather", 0, 16, 52, "degraded-to-top(in-flight)"},
      {"no-comm", 0, 0, 8, "complete"},
      {"nonblocking-ping", 0, 1, 5, "complete"},
      {"isend-fanout", 0, 2, 5, "complete"},
      {"wildcard-unique-sender", 0, 1, 5, "complete"},
      {"any_source_clean.mpl", 0, 1, 5, "complete"},
      {"any_source_race.mpl", 0, 0, 4, "degraded-to-top"},
      {"broadcast.mpl", 0, 5, 37, "complete"},
      {"dead_store.mpl", 0, 1, 4, "complete"},
      {"leak.mpl", 0, 1, 3, "complete"},
      {"nb_buffer_race.mpl", 0, 1, 4, "complete"},
      {"nb_buffer_race_clean.mpl", 0, 1, 5, "complete"},
      {"nb_double_wait.mpl", 0, 1, 5, "degraded-to-top"},
      {"nb_isend_waitall.mpl", 0, 2, 5, "complete"},
      {"nb_pingpong.mpl", 0, 1, 5, "complete"},
      {"nb_request_leak.mpl", 0, 0, 3, "complete"},
      {"nb_wait_uninit.mpl", 0, 0, 2, "degraded-to-top"},
      {"oob_partner.mpl", 0, 0, 3, "degraded-to-top"},
      {"proc_pipeline.mpl", 0, 5, 36, "complete"},
      {"self_send.mpl", 0, 1, 3, "complete"},
      {"shift.mpl", 2, 2, 7, "degraded-to-top"},
      {"stress_phases.mpl", 1800, 600, 1200, "complete"},
      {"tag_mismatch.mpl", 0, 0, 3, "degraded-to-top"},
      {"transpose.mpl", 3, 1, 2, "complete"},
      {"unreachable.mpl", 0, 0, 11, "complete"},
      {"use_before_init.mpl", 0, 0, 2, "complete"},
  };

  std::vector<std::pair<std::string, std::string>> Programs;
  for (const auto &[Name, Source] : corpus::allPatterns())
    Programs.emplace_back(Name, Source);
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E :
       fs::directory_iterator(CSDF_EXAMPLES_DIR))
    if (E.path().extension() == ".mpl")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &File : Files)
    Programs.emplace_back(File.filename().string(), readFile(File));

  ASSERT_EQ(Programs.size(), std::size(Expected));
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    const Row &Want = Expected[I];
    ASSERT_EQ(Programs[I].first, Want.Name);
    RunCounts Got = countRun(Programs[I].second);
    EXPECT_EQ(Got.ProverSteps, Want.ProverSteps) << Want.Name;
    EXPECT_EQ(Got.Matches, Want.Matches) << Want.Name;
    EXPECT_EQ(Got.StatesExplored, Want.StatesExplored) << Want.Name;
    EXPECT_EQ(Got.Outcome, Want.Outcome) << Want.Name;
  }
}

TEST(EngineRobustnessTest, ProverStepBudgetTripsAtTheSameStep) {
  // manyPhases(8) proves the same transpose in all eight phases (three
  // prover steps each); seven of those proofs are memo hits. Every limit
  // must trip at the same step, in the same configuration, with the same
  // partial results as the uncached prover (recorded before the memo).
  static const RunCounts Expected[] = {
      {1, 2, 0, 2, "degraded-to-top(prover-steps)", "n4;|s3;"},
      {2, 3, 0, 2, "degraded-to-top(prover-steps)", "n4;|s3;"},
      {3, 4, 1, 4, "degraded-to-top(prover-steps)", "n7;|s6;"},
      {4, 5, 1, 4, "degraded-to-top(prover-steps)", "n7;|s6;"},
      {5, 6, 1, 4, "degraded-to-top(prover-steps)", "n7;|s6;"},
      {6, 7, 2, 6, "degraded-to-top(prover-steps)", "n10;|s9;"},
      {7, 8, 2, 6, "degraded-to-top(prover-steps)", "n10;|s9;"},
      {8, 9, 2, 6, "degraded-to-top(prover-steps)", "n10;|s9;"},
      {9, 10, 3, 8, "degraded-to-top(prover-steps)", "n13;|s12;"},
      {10, 11, 3, 8, "degraded-to-top(prover-steps)", "n13;|s12;"},
      {11, 12, 3, 8, "degraded-to-top(prover-steps)", "n13;|s12;"},
      {12, 13, 4, 10, "degraded-to-top(prover-steps)", "n16;|s15;"},
      {13, 14, 4, 10, "degraded-to-top(prover-steps)", "n16;|s15;"},
      {14, 15, 4, 10, "degraded-to-top(prover-steps)", "n16;|s15;"},
      {15, 16, 5, 12, "degraded-to-top(prover-steps)", "n19;|s18;"},
      {16, 17, 5, 12, "degraded-to-top(prover-steps)", "n19;|s18;"},
      {17, 18, 5, 12, "degraded-to-top(prover-steps)", "n19;|s18;"},
      {18, 19, 6, 14, "degraded-to-top(prover-steps)", "n22;|s21;"},
      {19, 20, 6, 14, "degraded-to-top(prover-steps)", "n22;|s21;"},
      {20, 21, 6, 14, "degraded-to-top(prover-steps)", "n22;|s21;"},
      {21, 22, 7, 16, "degraded-to-top(prover-steps)", "n25;|s24;"},
      {22, 23, 7, 16, "degraded-to-top(prover-steps)", "n25;|s24;"},
      {23, 24, 7, 16, "degraded-to-top(prover-steps)", "n25;|s24;"},
      {24, 24, 8, 16, "complete", ""},
      {25, 24, 8, 16, "complete", ""},
      {26, 24, 8, 16, "complete", ""},
  };
  std::string Source = manyPhases(8);
  for (const RunCounts &Want : Expected)
    EXPECT_EQ(countRun(Source, Want.Limit), Want);
}

TEST(EngineRobustnessTest, HsmMemoProvesEachDistinctQuestionOnce) {
  // stress_phases.mpl writes one transpose 600 times, each phase with its
  // own AST nodes: one question, proven once and replayed 599 times.
  Built B = buildFrom(readFile(fs::path(CSDF_EXAMPLES_DIR) /
                               "stress_phases.mpl"));
  StatsRegistry Stats;
  AnalysisResult R =
      analyzeProgram(B.Graph, AnalysisOptions::cartesian(), &Stats);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Matches.size(), 600u);
  EXPECT_EQ(Stats.counter("hsm.match.memo.misses"), 1);
  EXPECT_EQ(Stats.counter("hsm.match.memo.hits"), 599);
}

TEST(EngineRobustnessTest, SelfSendSelfRecvViaHsm) {
  // send x -> id; recv y <- id: every process is its own partner.
  Built B = buildFrom("x = 3; send x -> id; recv y <- id; print y;");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.matchedNodePairs().size(), 1u);
  bool Proved = false;
  for (const PrintFact &F : R.PrintFacts)
    Proved |= F.Value == 3;
  EXPECT_TRUE(Proved);
}

} // namespace
