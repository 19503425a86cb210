//===- pcfg/EngineReplay.h - Seed validation (engine-internal) ------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine half of replay (pcfg/Replay.h has the correctness model):
/// which recorded steps a seeded run may adopt verbatim, and how an
/// adopted step is rebased onto the current graph.
///
/// Internal to the pcfg library: no header outside src/pcfg includes it.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_ENGINEREPLAY_H
#define CSDF_PCFG_ENGINEREPLAY_H

#include "cfg/LoopInfo.h"
#include "pcfg/Step.h"

#include <string>
#include <vector>

namespace csdf {

/// Per-node verdicts on whether a prior graph's recorded steps still hold
/// against the current graph.
class SeedValidator {
public:
  /// Checks the run's seed (In.Opts.Seed, which must be set) against the
  /// current graph, whose loops are \p Loops, and prepares the per-node
  /// verdicts. Returns why the seed is unusable, or an empty string when
  /// steps may be adopted.
  std::string validate(const StepInputs &In, const LoopInfo &Loops);

  /// Would a cold step over \p Popped produce exactly the recorded
  /// effects? Conservative by design: any doubt says no.
  bool adoptable(const TraceStep &Rec, const PcfgState &Popped) const;

private:
  bool stateAdoptable(const PcfgState &St, bool NeedSafe) const;

  /// Node ids valid in both graphs: min(prior size, current size).
  CfgNodeId Ncommon = 0;
  /// Clean[n]: node n has an identical structural signature in the prior
  /// and current graphs (every direct read of n behaves identically).
  std::vector<char> Clean;
  /// Safe[n]: Clean[n] and the whole advance-to-quiescence walk starting
  /// at n stays on clean nodes up to and including its stopping node
  /// (greatest fixpoint; see validate).
  std::vector<char> Safe;
};

/// Points every recorded in-flight send's destination AST at \p Graph.
/// The adoption check proved the node clean, so the new Partner is
/// structurally identical to the recorded one — this only swaps which
/// (equivalent) AST the state references, making the adopted state
/// bit-identical to what a cold run would have built and freeing the
/// trace from the prior run's AST lifetime.
void remapTraceStates(TraceStep &T, const Cfg &Graph);

} // namespace csdf

#endif // CSDF_PCFG_ENGINEREPLAY_H
