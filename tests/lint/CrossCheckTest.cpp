//===- tests/lint/CrossCheckTest.cpp - Interpreter vs. analyzer corpus -----===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Cross-checks every examples/mpl program's *dynamic* outcome (a concrete
// interpreter run) against the *static* lint verdict. The two must agree:
//
//   * a program that runs clean (finishes, no leaked messages, no leaked
//     requests, no nondeterminism witnesses) must draw no request-lifecycle
//     finding, and — when the pCFG analysis completed without degrading to
//     Top — no communication-bug finding at all;
//   * every concrete bug the interpreter observes must be flagged by the
//     matching rule: a "buffer race" EvalError by csdf.buffer-race, a
//     "double wait" by csdf.double-wait, a wait on a never-posted request
//     by csdf.wait-uninit, leaked requests by csdf.request-leak, leaked
//     messages by csdf.message-leak, and a multi-eligible wildcard match
//     by csdf.match-nondet. Deadlocks and other EvalErrors must at least
//     surface *some* diagnostic.
//
// This is the ground-truth contract for the example corpus: adding a buggy
// example without detector coverage (or a clean twin that trips a false
// positive) fails here, not in code review.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "cfg/CfgBuilder.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

std::string readFileOrDie(const fs::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool hasRule(const DiagnosticEngine &Diags, const std::string &Pass) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Pass == Pass)
      return true;
  return false;
}

/// Run parameters per example. Most run at np = 8; the NAS-CG kernels
/// carry an `assume np == nrows * nrows` and need a matching grid.
RunOptions runConfigFor(const std::string &Stem) {
  RunOptions Opts;
  Opts.NumProcs = 8;
  Opts.Params = {{"half", 4}};
  if (Stem == "transpose" || Stem == "stress_phases") {
    Opts.NumProcs = 4;
    Opts.Params = {{"nrows", 2}};
  }
  return Opts;
}

TEST(CrossCheck, InterpreterOutcomeConsistentWithLintVerdict) {
  const fs::path Examples = CSDF_EXAMPLES_DIR;
  ASSERT_TRUE(fs::is_directory(Examples));

  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Examples))
    if (E.path().extension() == ".mpl")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 19u) << "example corpus unexpectedly small";

  for (const fs::path &File : Files) {
    SCOPED_TRACE(File.filename().string());
    std::string Source = readFileOrDie(File);

    // Dynamic ground truth.
    Program P = parseProgramOrDie(Source);
    Cfg Graph = buildCfg(P);
    RunResult Run = runProgram(Graph, runConfigFor(File.stem().string()));

    // Static verdict (default lint pipeline, symbolic np).
    DiagnosticEngine Diags;
    ASSERT_TRUE(lintSource(Source, LintOptions(), Diags));

    // Examples must exercise real bug classes, not setup mistakes.
    EXPECT_NE(Run.Status, RunStatus::AssertFailed)
        << "run parameters violate the program's assumes: " << Run.Error;
    if (Run.Status == RunStatus::StepLimit) {
      // The one legitimate way to hit the step budget is an intentional
      // infinite loop (unreachable.mpl); lint must have flagged the code
      // the loop cuts off.
      EXPECT_TRUE(hasRule(Diags, "unreachable-code")) << Run.Error;
      continue;
    }

    const bool DynamicClean = Run.finished() && Run.Leaks.empty() &&
                              Run.RequestLeaks.empty() &&
                              Run.NondetWitnesses.empty();

    if (DynamicClean) {
      // The request-lifecycle checks are CFG-level dataflow and must be
      // free of false positives on every clean program.
      for (const char *Pass :
           {"buffer-race", "request-leak", "double-wait", "wait-uninit"})
        EXPECT_FALSE(hasRule(Diags, Pass))
            << "false positive '" << Pass << "' on a dynamically clean run";
      // The pCFG-bridge findings are only held to that standard when the
      // analysis completed; under Top its candidates are best-effort.
      if (!hasRule(Diags, "analysis-top")) {
        for (const char *Pass : {"message-leak", "possible-deadlock",
                                 "tag-mismatch", "match-nondet"})
          EXPECT_FALSE(hasRule(Diags, Pass))
              << "false positive '" << Pass
              << "' on a dynamically clean run with a complete analysis";
      }
      continue;
    }

    // Something concrete went wrong: lint must have said *something*.
    EXPECT_FALSE(Diags.diagnostics().empty())
        << "dynamic bug with a silent lint: status="
        << runStatusName(Run.Status) << " error=" << Run.Error;

    // Evidence-directed mapping: each observed bug class implies its rule.
    if (Run.Status == RunStatus::EvalError) {
      if (Run.Error.find("buffer race") != std::string::npos) {
        EXPECT_TRUE(hasRule(Diags, "buffer-race")) << Run.Error;
      }
      if (Run.Error.find("double wait") != std::string::npos) {
        EXPECT_TRUE(hasRule(Diags, "double-wait")) << Run.Error;
      }
      if (Run.Error.find("never-posted") != std::string::npos) {
        EXPECT_TRUE(hasRule(Diags, "wait-uninit")) << Run.Error;
      }
    }
    if (Run.finished()) {
      if (!Run.RequestLeaks.empty()) {
        EXPECT_TRUE(hasRule(Diags, "request-leak"));
      }
      if (!Run.Leaks.empty()) {
        EXPECT_TRUE(hasRule(Diags, "message-leak"));
      }
      if (!Run.NondetWitnesses.empty()) {
        EXPECT_TRUE(hasRule(Diags, "match-nondet"));
      }
    }
    if (Run.Status == RunStatus::Deadlock) {
      bool Explained = false;
      for (const char *Pass :
           {"possible-deadlock", "tag-mismatch", "tag-mismatch-const",
            "partner-bounds", "send-to-self", "analysis-top"})
        Explained = Explained || hasRule(Diags, Pass);
      EXPECT_TRUE(Explained) << "deadlock with no explaining diagnostic";
    }
  }
}

} // namespace
