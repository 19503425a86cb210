//===- tests/pcfg/ExactnessSweepTest.cpp - Property sweep ----------------------===//
//
// The paper's central exactness requirement, as a parameterized property:
// for every corpus kernel and every pinned process count, whenever the
// analysis converges its matched (send, recv) node pairs must equal the
// dynamic trace exactly, and even when it reports Top it must never have
// recorded a match that contradicts the trace... (matches are proven, so
// recorded pairs are sound regardless of the final verdict).
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "interp/Interpreter.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "pcfg/Engine.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

struct SweepCase {
  corpus::NamedProgram Prog;
  int Np;
};

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> Cases;
  for (const auto &P : corpus::allPatterns())
    for (int Np : {4, 6, 8, 9, 12})
      Cases.push_back({P, Np});
  return Cases;
}

/// Grid parameters that satisfy each kernel's assumes at a given np, or
/// nullopt when none exist.
std::optional<std::map<std::string, std::int64_t>>
paramsFor(const std::string &Name, int Np) {
  std::map<std::string, std::int64_t> P;
  if (Name == "transpose-square") {
    for (int R = 1; R * R <= Np; ++R)
      if (R * R == Np) {
        P["nrows"] = R;
        return P;
      }
    return std::nullopt;
  }
  if (Name == "transpose-rect") {
    for (int R = 1; 2 * R * R <= Np; ++R)
      if (2 * R * R == Np) {
        P["nrows"] = R;
        P["ncols"] = 2 * R;
        return P;
      }
    return std::nullopt;
  }
  if (Name == "nascg-transpose") {
    for (int R = 1; R * R <= Np; ++R)
      if (R * R == Np) {
        P["nrows"] = R;
        P["ncols"] = R;
        return P;
      }
    for (int R = 1; 2 * R * R <= Np; ++R)
      if (2 * R * R == Np) {
        P["nrows"] = R;
        P["ncols"] = 2 * R;
        return P;
      }
    return std::nullopt;
  }
  if (Name == "vshift-2d") {
    for (int C = 2; C < Np; ++C)
      if (Np % C == 0 && Np / C >= 2) {
        P["ncols"] = C;
        P["nrows"] = Np / C;
        return P;
      }
    return std::nullopt;
  }
  if (Name == "pairwise-exchange") {
    if (Np % 2 != 0)
      return std::nullopt;
    P["half"] = Np / 2;
    return P;
  }
  return P; // No parameters needed.
}

/// The interpreter's match set and the cartesian analysis at pinned \p Np.
struct PinnedRun {
  std::set<std::pair<CfgNodeId, CfgNodeId>> Dynamic;
  AnalysisResult R;
};

PinnedRun runPinned(const corpus::NamedProgram &Prog, int Np,
                    const std::map<std::string, std::int64_t> &Params) {
  Program P = parseProgramOrDie(Prog.Source);
  Cfg Graph = buildCfg(P);

  RunOptions RunOpts;
  RunOpts.NumProcs = Np;
  RunOpts.Params = Params;
  RunResult Run = runProgram(Graph, RunOpts);
  EXPECT_TRUE(Run.finished()) << Prog.Name << " np=" << Np << ": "
                              << Run.Error;
  PinnedRun Out;
  for (const TraceEvent &E : Run.Trace)
    Out.Dynamic.insert({E.SendNode, E.RecvNode});

  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.FixedNp = Np;
  Opts.Params = Params;
  Out.R = analyzeProgram(Graph, Opts);
  return Out;
}

class ExactnessSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExactnessSweep, ConvergedMeansExact) {
  const auto &[Prog, Np] = GetParam();
  auto Params = paramsFor(Prog.Name, Np);
  if (!Params)
    GTEST_SKIP() << "no valid grid for np=" << Np;
  PinnedRun Run = runPinned(Prog, Np, *Params);

  // Soundness: every recorded match is real (matches are proven even on
  // Top runs).
  for (const auto &Pair : Run.R.matchedNodePairs())
    EXPECT_TRUE(Run.Dynamic.count(Pair))
        << Prog.Name << " np=" << Np << ": spurious match " << Pair.first
        << "->" << Pair.second;

  // Exactness: convergence implies the full topology was found.
  if (Run.R.Converged) {
    EXPECT_EQ(Run.R.matchedNodePairs(), Run.Dynamic)
        << Prog.Name << " np=" << Np;
  }
}

class GatherToRootPinned : public ::testing::TestWithParam<int> {};

TEST_P(GatherToRootPinned, ConvergesWithTheInterpretersMatches) {
  // Figure 1's gather loop at a pinned np: widening must not lose the
  // loop bound tied to np, so the analysis converges and finds exactly
  // the interpreter's topology.
  const int Np = GetParam();
  PinnedRun Run = runPinned({"gather-to-root", corpus::gatherToRoot()}, Np,
                            {});
  EXPECT_TRUE(Run.R.Converged) << Run.R.TopReason;
  EXPECT_EQ(Run.R.matchedNodePairs(), Run.Dynamic);
}

INSTANTIATE_TEST_SUITE_P(Np, GatherToRootPinned,
                         ::testing::Values(4, 8, 16, 32));

INSTANTIATE_TEST_SUITE_P(
    Corpus, ExactnessSweep, ::testing::ValuesIn(sweepCases()),
    [](const ::testing::TestParamInfo<SweepCase> &Info) {
      std::string Name = Info.param.Prog.Name + "_np" +
                         std::to_string(Info.param.Np);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
