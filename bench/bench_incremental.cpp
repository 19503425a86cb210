//===- bench/bench_incremental.cpp - Edit-loop cost: cold vs seeded --------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Measures the editor scenario the incremental pipeline exists for: a
// program with many communication phases, the user edits one small
// procedure, and the analyzer re-answers. A cold run pays the full
// fixpoint over every phase each time; analyzeIncremental re-runs with
// the prior engine trace attached as a seed, so worklist steps of
// untouched phases are adopted (validated, not recomputed). Programs are
// synthesized as N scatter phases plus a small `report` procedure; the
// edit loop flips a literal inside report — a variable-preserving
// single-procedure edit, so the seed is accepted and everything up to the
// first report state adopts. The process count is fixed (np=12) so the
// phase loops iterate concretely: no widening revisits, which would land
// after the edited procedure's first worklist appearance and close the
// adoption window early (trace adoption is positional and stops for good
// at the first divergent step).
//
// Reports cold vs incremental microseconds per revision and the adoption
// fraction for N in {8, 16, 24, 32}, and checks both claims EXPERIMENTS.md
// E14 makes: every incremental revision's verdict JSON (wall_ms aside)
// equals the cold run's for the same source, and the largest size clears
// a 5x speedup. Exit 1 when either fails.
//
//===----------------------------------------------------------------------===//

#include "api/Csdf.h"

#include <chrono>
#include <cstdio>
#include <regex>
#include <string>
#include <vector>

using namespace csdf;

namespace {

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// N scatter phases, each its own procedure, called in sequence, then a
/// small `report` procedure. \p Tweak perturbs a literal in report's
/// body: same variables, same communication structure, different
/// constant — the smallest single-procedure edit an editor session
/// produces.
std::string phasedProgram(unsigned Phases, unsigned Tweak) {
  std::string Src;
  for (unsigned P = 0; P < Phases; ++P) {
    std::string V = "a" + std::to_string(P);
    Src += "proc phase" + std::to_string(P) + " do\n";
    Src += "  if id == 0 then\n";
    Src += "    " + V + " = " + std::to_string(P) + ";\n";
    Src += "    for i = 1 to np - 1 do\n";
    Src += "      send " + V + " -> i;\n";
    Src += "    end\n";
    Src += "  else\n";
    Src += "    recv " + V + " <- 0;\n";
    Src += "  end\n";
    Src += "end\n";
  }
  Src += "proc report do\n";
  Src += "  if id == 0 then\n";
  Src += "    r = " + std::to_string(Tweak) + ";\n";
  Src += "    print r;\n";
  Src += "  end\n";
  Src += "end\n";
  for (unsigned P = 0; P < Phases; ++P)
    Src += "call phase" + std::to_string(P) + ";\n";
  Src += "call report;\n";
  return Src;
}

api::AnalyzeRequest revision(unsigned Phases, unsigned Tweak) {
  api::AnalyzeRequest Req;
  Req.Path = "phased.mpl";
  Req.Source = phasedProgram(Phases, Tweak);
  Req.Options.FixedNp = 12;
  return Req;
}

/// \p R's `csdf analyze --format json` line with the wall_ms measurement
/// zeroed, so a cold and an incremental answer compare byte for byte.
std::string verdictOf(const api::AnalyzeRequest &Req,
                      const api::AnalyzeResponse &R) {
  static const std::regex WallMs("\"wall_ms\": \\d+");
  return std::regex_replace(api::verdictJson(Req.Path, R), WallMs,
                            "\"wall_ms\": 0");
}

struct Point {
  unsigned Phases = 0;
  double ColdUs = 0;
  double IncUs = 0;
  double AdoptedFrac = 0;
  unsigned VerdictDiffs = 0;
  double speedup() const { return IncUs > 0 ? ColdUs / IncUs : 0; }
};

Point measure(unsigned Phases, unsigned Revisions) {
  Point Pt;
  Pt.Phases = Phases;

  // Cold: a fresh one-shot Analyzer per revision (what `csdf analyze`
  // pays, minus process startup). The verdicts are the reference the
  // incremental leg must reproduce.
  std::vector<std::string> ColdVerdicts;
  for (unsigned R = 0; R < Revisions; ++R) {
    api::AnalyzeRequest Req = revision(Phases, R);
    double Start = nowUs();
    api::AnalyzeResponse Resp = api::Analyzer().analyze(Req);
    Pt.ColdUs += nowUs() - Start;
    ColdVerdicts.push_back(verdictOf(Req, Resp));
  }
  Pt.ColdUs /= Revisions;

  // Incremental: one editor session. The first revision is the untimed
  // warm-up that records the trace; every timed revision is a fresh edit
  // (never an exact cache repeat) re-analyzed with the prior seed.
  api::Analyzer An(api::AnalyzerConfig::warm());
  An.analyzeIncremental(revision(Phases, 9999));
  std::uint64_t Adopted = 0, Total = 0;
  for (unsigned R = 0; R < Revisions; ++R) {
    api::AnalyzeRequest Req = revision(Phases, R);
    double Start = nowUs();
    api::AnalyzeResponse Resp = An.analyzeIncremental(Req);
    Pt.IncUs += nowUs() - Start;
    Adopted += Resp.Replay.AdoptedSteps;
    Total += Resp.Replay.TotalSteps;
    if (verdictOf(Req, Resp) != ColdVerdicts[R])
      ++Pt.VerdictDiffs;
  }
  Pt.IncUs /= Revisions;
  Pt.AdoptedFrac = Total ? static_cast<double>(Adopted) / Total : 0;
  return Pt;
}

} // namespace

int main() {
  const unsigned Sizes[] = {8, 16, 24, 32};
  const unsigned Revisions = 8;

  std::printf("=== incremental pipeline: edit-loop cost, cold vs seeded ===\n");
  std::printf("N scatter phases at np=12; each revision edits a literal in "
              "the report procedure (%u revisions)\n\n",
              Revisions);
  std::printf("%8s %14s %14s %10s %10s %9s\n", "phases", "cold us/rev",
              "incr us/rev", "speedup", "adopted", "verdicts");

  unsigned VerdictDiffs = 0;
  double LargestSpeedup = 0;
  for (unsigned N : Sizes) {
    Point Pt = measure(N, Revisions);
    std::printf("%8u %14.1f %14.1f %9.1fx %9.1f%% %9s\n", Pt.Phases,
                Pt.ColdUs, Pt.IncUs, Pt.speedup(), Pt.AdoptedFrac * 100,
                Pt.VerdictDiffs ? "DIFFER" : "same");
    VerdictDiffs += Pt.VerdictDiffs;
    LargestSpeedup = Pt.speedup();
  }

  bool Cleared = LargestSpeedup >= 5.0;
  std::printf("\nlargest size speedup: %.1fx (%s the 5x bar)\n",
              LargestSpeedup, Cleared ? "clears" : "MISSES");
  std::printf("incremental verdicts differing from cold: %u of %zu\n",
              VerdictDiffs, std::size(Sizes) * Revisions);
  return Cleared && VerdictDiffs == 0 ? 0 : 1;
}
