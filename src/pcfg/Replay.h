//===- pcfg/Replay.h - Seeded fixpoints: trace capture and replay ----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-side contract of the incremental pipeline. A run with a
/// ReplayCapture attached records its exploration as an AnalysisTrace —
/// the per-worklist-position effect logs plus the committer's decisions.
/// A later run over an *edited* program passes that trace back as an
/// EngineSeed: the engine validates, per CFG node, whether the node (and
/// everything a step reading it would touch) is unchanged, and adopts
/// recorded steps verbatim until the exploration first reaches an edited
/// region, falling back to live computation from there on.
///
/// Correctness model: adoption is re-validated structurally — a step is
/// adopted only when every CFG node in its read/write footprint is
/// provably identical between the prior and current graphs, so the
/// incremental result is bit-identical to a cold run by construction.
/// Any doubt (changed node, out-of-range id, recorded failure) stops the
/// replay permanently; the remaining worklist is computed live.
///
/// AnalysisTrace is deliberately opaque outside the engine: its contents
/// mirror engine internals and carry pointers into the AST of the run
/// that captured it (EngineSeed::PriorKeepAlive must own that AST). The
/// recording run's DBM accounting is detached before the trace is
/// deposited, but its StatsRegistry pointer is retained by contained
/// constraint graphs — capture only on runs using the global registry
/// (the default; every driver/api path qualifies).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_REPLAY_H
#define CSDF_PCFG_REPLAY_H

#include <memory>
#include <string>

namespace csdf {

class AnalysisTrace; // Defined in pcfg/Step.h; opaque to clients.
class Cfg;
class SymbolTable;

/// Observability counters for one seeded (or capturing) run.
struct ReplayStats {
  /// Worklist steps processed (adopted + live).
  unsigned TotalSteps = 0;
  /// Steps adopted verbatim from the seed trace.
  unsigned AdoptedSteps = 0;
  /// Steps computed live (after replay stopped, or with no seed).
  unsigned LiveSteps = 0;
  /// True when a seed passed validation and at least the replay window
  /// was opened (even if the first step already failed adoption).
  bool SeedUsed = false;
  /// Why the seed was rejected wholesale; empty when accepted or absent.
  std::string SeedRejectReason;
};

/// A prior converged exploration offered to the engine as a warm start.
/// All four members must describe the *same* prior run.
struct EngineSeed {
  /// The recorded exploration (from ReplayCapture::Trace).
  std::shared_ptr<const AnalysisTrace> Trace;
  /// The CFG the trace was recorded against, for node-level diffing.
  std::shared_ptr<const Cfg> PriorGraph;
  /// The intern table the prior run used. The seeding run must pass the
  /// *same* table as AnalysisOptions::SharedSymbols — recorded states
  /// hold interned variable ids that are only valid against it.
  std::shared_ptr<SymbolTable> Symbols;
  /// Owner of the AST the trace's states point into (the prior parse).
  std::shared_ptr<const void> PriorKeepAlive;
  /// AnalysisOptions::fingerprint() of the recording run. The seeding
  /// run's options must fingerprint identically: recorded steps encode
  /// option-dependent decisions (matchers, send semantics, widening
  /// delays), so a mismatch invalidates the whole trace.
  std::string OptionsFingerprint;
};

/// Attach to AnalysisOptions::Capture to record the run. Filled only
/// when the run converged (budget-limited or degraded explorations are
/// not worth replaying and are never captured).
struct ReplayCapture {
  std::shared_ptr<const AnalysisTrace> Trace;
};

} // namespace csdf

#endif // CSDF_PCFG_REPLAY_H
