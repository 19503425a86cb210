//===- tests/pcfg/EngineTest.cpp - Full pCFG analysis tests -------------------===//
//
// End-to-end tests of the Figure 4 dataflow engine on the paper's corpus,
// cross-validated against the concrete interpreter: for every converged
// analysis, the set of statically matched (send node, recv node) pairs must
// equal the dynamically observed pairs (the paper's exact-matching claim).
//
//===----------------------------------------------------------------------===//

#include "pcfg/Engine.h"
#include "pcfg/Replay.h"
#include "pcfg/Step.h"

#include "cfg/CfgBuilder.h"
#include "interp/Interpreter.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace csdf;

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

std::set<std::pair<CfgNodeId, CfgNodeId>>
dynamicPairs(const Cfg &Graph, int NumProcs,
             std::map<std::string, std::int64_t> Params = {}) {
  RunOptions Opts;
  Opts.NumProcs = NumProcs;
  Opts.Params = std::move(Params);
  RunResult R = runProgram(Graph, Opts);
  EXPECT_TRUE(R.finished()) << R.Error;
  std::set<std::pair<CfgNodeId, CfgNodeId>> Pairs;
  for (const TraceEvent &E : R.Trace)
    Pairs.insert({E.SendNode, E.RecvNode});
  return Pairs;
}

std::string describe(const AnalysisResult &R, const Cfg &Graph) {
  std::string S = R.Converged ? "converged" : ("TOP: " + R.TopReason);
  S += "\nmatches:\n";
  for (const MatchRecord &M : R.Matches)
    S += "  " + Graph.nodeLabel(M.SendNode) + "  ->  " +
         Graph.nodeLabel(M.RecvNode) + "   " + M.SenderRange + " -> " +
         M.ReceiverRange + "\n";
  for (const AnalysisBug &B : R.Bugs)
    S += std::string("bug: ") + analysisBugKindName(B.TheKind) + ": " +
         B.Detail + "\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Figure 2: constant propagation through matched sends (E1)
//===----------------------------------------------------------------------===//

TEST(EngineTest, Figure2ExchangeConvergesWithTwoMatches) {
  Built B = buildFrom(corpus::figure2Exchange());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 2u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 8));
}

TEST(EngineTest, Figure2BothProcessesProvablyPrintFive) {
  Built B = buildFrom(corpus::figure2Exchange());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  // Two print statements, each with the provable constant 5.
  unsigned ProvedFive = 0;
  std::set<CfgNodeId> Nodes;
  for (const PrintFact &F : R.PrintFacts)
    if (F.Value == 5) {
      ++ProvedFive;
      Nodes.insert(F.Node);
    }
  EXPECT_GE(ProvedFive, 2u) << describe(R, B.Graph);
  EXPECT_EQ(Nodes.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Figures 1/5: root patterns (E2)
//===----------------------------------------------------------------------===//

TEST(EngineTest, FanOutBroadcastConverges) {
  Built B = buildFrom(corpus::fanOutBroadcast());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 1u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 8));
}

TEST(EngineTest, GatherToRootConverges) {
  Built B = buildFrom(corpus::gatherToRoot());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 1u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 8));
}

TEST(EngineTest, ExchangeWithRootConverges) {
  Built B = buildFrom(corpus::exchangeWithRoot());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 2u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 8));
}

TEST(EngineTest, BroadcastThenGatherConverges) {
  // Two sequentially composed root loops: the worker set is handed off
  // from the broadcast phase to the gather phase. Keeping the set-extent
  // anchors exact across merges (no duplicate anchor variables) preserves
  // the `arrived == [1..i-1]` relation through both phases, so even the
  // per-iteration Figure 4 client converges symbolically.
  Built B = buildFrom(corpus::broadcastThenGather());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 2u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 8));
}

//===----------------------------------------------------------------------===//
// Figure 6: cartesian transposes via HSMs (E3)
//===----------------------------------------------------------------------===//

TEST(EngineTest, TransposeSquareConvergesWithHsm) {
  Built B = buildFrom(corpus::transposeSquare());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 1u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(),
            dynamicPairs(B.Graph, 16, {{"nrows", 4}}));
}

TEST(EngineTest, TransposeSquareTopsOutWithoutHsm) {
  // The Section VII client cannot match the transpose expressions.
  Built B = buildFrom(corpus::transposeSquare());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.Sends = SendSemantics::Buffered;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  EXPECT_FALSE(R.Converged);
}

TEST(EngineTest, TransposeRectConvergesWithHsm) {
  Built B = buildFrom(corpus::transposeRect());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 1u) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(),
            dynamicPairs(B.Graph, 18, {{"nrows", 3}, {"ncols", 6}}));
}

TEST(EngineTest, NascgBothBranchesConverge) {
  Built B = buildFrom(corpus::nascgTranspose());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  // One matched pair per grid-shape branch.
  auto Pairs = R.matchedNodePairs();
  EXPECT_EQ(Pairs.size(), 2u) << describe(R, B.Graph);
  // Square run covers the first branch, rectangular the second.
  auto Square = dynamicPairs(B.Graph, 16, {{"nrows", 4}, {"ncols", 4}});
  auto Rect = dynamicPairs(B.Graph, 18, {{"nrows", 3}, {"ncols", 6}});
  std::set<std::pair<CfgNodeId, CfgNodeId>> Union = Square;
  Union.insert(Rect.begin(), Rect.end());
  EXPECT_EQ(Pairs, Union) << describe(R, B.Graph);
}

//===----------------------------------------------------------------------===//
// Figure 7: nearest-neighbor shift (E4)
//===----------------------------------------------------------------------===//

TEST(EngineTest, NeighborShiftConvergesAtFixedNp) {
  Built B = buildFrom(corpus::neighborShift());
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.FixedNp = 6;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 6))
      << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs().size(), 3u);
}

TEST(EngineTest, NeighborShiftLeftConvergesAtFixedNp) {
  Built B = buildFrom(corpus::neighborShiftLeft());
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.FixedNp = 6;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 6))
      << describe(R, B.Graph);
}

TEST(EngineTest, Vshift2dConvergesWithPinnedGrid) {
  // Section VIII-C's d = 2 case: the partner expressions are
  // `id +- ncols`, which resolve to plain shifts once the grid is pinned.
  Built B = buildFrom(corpus::vshift2d());
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.FixedNp = 12;
  Opts.Params = {{"nrows", 3}, {"ncols", 4}};
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(),
            dynamicPairs(B.Graph, 12, {{"nrows", 3}, {"ncols", 4}}))
      << describe(R, B.Graph);
}

TEST(EngineTest, Vshift2dInterpreterGroundTruth) {
  Built B = buildFrom(corpus::vshift2d());
  RunOptions Opts;
  Opts.NumProcs = 12;
  Opts.Params = {{"nrows", 3}, {"ncols", 4}};
  RunResult R = runProgram(B.Graph, Opts);
  ASSERT_TRUE(R.finished()) << R.Error;
  // Every non-top-row process received the value of the process one row
  // up (values are x = id).
  for (int Id = 4; Id < 12; ++Id)
    EXPECT_EQ(R.FinalVars[Id].at("y"), Id - 4) << Id;
  EXPECT_EQ(R.Trace.size(), 8u);
}

TEST(EngineTest, NeighborExchangeConvergesAtFixedNp) {
  Built B = buildFrom(corpus::neighborExchange1D());
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.FixedNp = 5;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 5))
      << describe(R, B.Graph);
}

//===----------------------------------------------------------------------===//
// Bug detection
//===----------------------------------------------------------------------===//

TEST(EngineTest, MessageLeakIsDetected) {
  Built B = buildFrom(corpus::messageLeak());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_TRUE(R.hasBug(AnalysisBug::Kind::MessageLeak))
      << describe(R, B.Graph);
}

TEST(EngineTest, HeadToHeadDeadlockIsDetected) {
  Built B = buildFrom(corpus::headToHeadDeadlock());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_FALSE(R.Converged);
  EXPECT_TRUE(R.hasBug(AnalysisBug::Kind::PossibleDeadlock))
      << describe(R, B.Graph);
}

TEST(EngineTest, TagMismatchIsDetected) {
  Built B = buildFrom(corpus::tagMismatch());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  EXPECT_FALSE(R.Converged);
  EXPECT_TRUE(R.hasBug(AnalysisBug::Kind::TagMismatch))
      << describe(R, B.Graph);
}

//===----------------------------------------------------------------------===//
// Honest Top on unsupported patterns (paper Section X limitations)
//===----------------------------------------------------------------------===//

TEST(EngineTest, RingShiftTopsOut) {
  Built B = buildFrom(corpus::ringShift());
  AnalysisResult Simple =
      analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_FALSE(Simple.Converged);
  AnalysisResult Cart = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  EXPECT_FALSE(Cart.Converged);
}

TEST(EngineTest, PairwiseExchangeTopsOut) {
  // id % 2 branches produce strided process sets, which the range-based
  // abstraction cannot represent.
  Built B = buildFrom(corpus::pairwiseExchange());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::cartesian());
  EXPECT_FALSE(R.Converged);
}

//===----------------------------------------------------------------------===//
// Misc engine behaviour
//===----------------------------------------------------------------------===//

TEST(EngineTest, NoCommProgramConverges) {
  Built B = buildFrom(corpus::noComm());
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_TRUE(R.Matches.empty());
  EXPECT_TRUE(R.Bugs.empty());
}

TEST(EngineTest, EmptyProgramConverges) {
  Built B = buildFrom("");
  AnalysisResult R = analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic());
  EXPECT_TRUE(R.Converged);
}

TEST(EngineTest, FixedNpMatchesSymbolicOnBroadcast) {
  Built B = buildFrom(corpus::fanOutBroadcast());
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  Opts.FixedNp = 8;
  AnalysisResult R = analyzeProgram(B.Graph, Opts);
  ASSERT_TRUE(R.Converged) << describe(R, B.Graph);
  EXPECT_EQ(R.matchedNodePairs(), dynamicPairs(B.Graph, 8));
}

TEST(EngineTest, StatsAreRecorded) {
  StatsRegistry Local;
  Built B = buildFrom(corpus::exchangeWithRoot());
  AnalysisResult R =
      analyzeProgram(B.Graph, AnalysisOptions::simpleSymbolic(), &Local);
  ASSERT_TRUE(R.Converged);
  EXPECT_GT(R.StatesExplored, 0u);
  EXPECT_GT(R.ConfigsVisited, 0u);
  EXPECT_GT(Local.counter("cg.closure.full.calls") +
                Local.counter("cg.closure.incr.calls"),
            0);
  EXPECT_GT(Local.seconds("pcfg.analysis.seconds"), 0.0);
}

//===----------------------------------------------------------------------===//
// Seeded replays
//===----------------------------------------------------------------------===//

TEST(EngineTest, ReplayCutAtEveryStepMatchesColdRun) {
  // A seed whose trace stops after K steps adopts those K and computes
  // the rest live. These loop kernels widen, so some cuts fall between
  // two widenings of one variant: the live widening must start from the
  // iterate the replay restored, or the ascent diverges from the cold
  // run's.
  for (const std::string &Source :
       {corpus::fanOutBroadcast(), corpus::exchangeWithRoot(),
        corpus::gatherToRoot()}) {
    auto Prog = std::make_shared<Program>(parseProgramOrDie(Source));
    auto Graph = std::make_shared<const Cfg>(buildCfg(*Prog));
    AnalysisOptions Opts = AnalysisOptions::cartesian();
    Opts.SharedSymbols = std::make_shared<SymbolTable>();
    auto Capture = std::make_shared<ReplayCapture>();
    Opts.Capture = Capture;
    AnalysisResult Cold = analyzeProgram(*Graph, Opts);
    ASSERT_TRUE(Cold.Converged) << describe(Cold, *Graph);
    ASSERT_TRUE(Capture->Trace);
    Opts.Capture = nullptr;
    const std::vector<TraceStep> &Steps = Capture->Trace->Steps;
    for (std::size_t Cut = 1; Cut < Steps.size(); ++Cut) {
      SCOPED_TRACE(testing::Message() << "cut after " << Cut << " of "
                                      << Steps.size() << " steps");
      auto Prefix = std::make_shared<AnalysisTrace>();
      Prefix->Steps.assign(Steps.begin(), Steps.begin() + Cut);
      auto Seed = std::make_shared<EngineSeed>();
      Seed->Trace = Prefix;
      Seed->PriorGraph = Graph;
      Seed->Symbols = Opts.SharedSymbols;
      Seed->PriorKeepAlive = Prog;
      Seed->OptionsFingerprint = Opts.fingerprint();
      Opts.Seed = Seed;
      auto Stats = std::make_shared<ReplayStats>();
      Opts.Replay = Stats;
      AnalysisResult Seeded = analyzeProgram(*Graph, Opts);
      EXPECT_EQ(Stats->AdoptedSteps, Cut);
      EXPECT_EQ(Seeded.StatesExplored, Cold.StatesExplored);
      EXPECT_EQ(describe(Seeded, *Graph), describe(Cold, *Graph));
    }
  }
}

} // namespace
