//===- pcfg/AnalysisOptions.h - pCFG engine configuration ---------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the pCFG dataflow engine. The two client analyses of
/// the paper are option presets:
///
///   * Section VII (simple symbolic): linear matcher, blocking sends —
///     exactly the Figure 4 formulas;
///   * Section VIII (cartesian/HSM): adds the HSM matcher and buffered
///     sends (the paper's Section X non-blocking extension, needed for
///     self-exchange patterns like the NAS-CG transpose where every
///     process sends before any receives).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_ANALYSISOPTIONS_H
#define CSDF_PCFG_ANALYSISOPTIONS_H

#include "support/Budget.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace csdf {

class SymbolTable;
class ClosureMemo;
struct EngineSeed;
struct ReplayCapture;
struct ReplayStats;

/// How the analysis models sends (Section III vs Section X).
enum class SendSemantics {
  /// Sends block until matched (the paper's simplifying assumption).
  Blocking,
  /// Sends deposit an in-flight message and advance (bounded aggregation).
  Buffered,
};

/// Engine limits and feature switches.
struct AnalysisOptions {
  /// Enables the Section VII `var + c` matcher.
  bool UseLinearMatcher = true;
  /// Enables the Section VIII HSM matcher.
  bool UseHsmMatcher = false;

  SendSemantics Sends = SendSemantics::Blocking;

  /// Assumed minimum process count. Results describe executions with
  /// np >= MinProcs (the paper's examples implicitly assume enough
  /// processes for every role to be non-empty).
  std::int64_t MinProcs = 4;

  /// When positive, pins np to this exact value. Useful for patterns whose
  /// dynamic structure is not named by any program variable (e.g. the
  /// Figure 7 pipeline), where only a concrete process count lets the
  /// exploration terminate.
  std::int64_t FixedNp = 0;

  /// Maximum distinct (unjoinable) states kept per pCFG configuration.
  unsigned MaxVariantsPerConfig = 96;

  /// Pinned grid parameters (e.g. {nrows: 3, ncols: 4}), analogous to the
  /// interpreter's RunOptions::Params. Each becomes an equality fact in
  /// the constraint graph and a rewrite in the fact environment, letting
  /// expressions like `id + ncols` resolve to concrete shifts.
  std::map<std::string, std::int64_t> Params;

  /// Maximum simultaneously tracked in-flight sends (buffered mode);
  /// exceeding it aborts to Top (all-to-all style aggregation is future
  /// work in the paper too).
  unsigned MaxInFlight = 8;

  /// Maximum number of process sets per state (the paper's parameter p).
  unsigned MaxProcSets = 12;

  /// Joins at a configuration become widenings after this many visits.
  unsigned WidenDelay = 2;

  /// Abort to Top after this many explored states (safety net).
  unsigned MaxStates = 20000;

  /// Resource governor for this run (deadline, memory ceiling, prover
  /// steps). Non-owning: the budget must outlive the analysis *and* every
  /// AnalysisResult snapshot holding DBM state accounted against it. Null
  /// disables cooperative budgeting (the MaxStates/MaxProcSets/... bounds
  /// above still apply).
  AnalysisBudget *Budget = nullptr;

  /// Reports a MatchNondet bug when a wildcard receive has two or more
  /// statically eligible senders. Disabling only suppresses the report;
  /// the precision consequence (degrading to Top at ambiguous wildcard
  /// matches) is unconditional because exact matching is impossible
  /// there either way.
  bool CheckMatchNondet = true;

  /// Summarizes singleton-sender send loops (`for v = lo to hi do
  /// send x -> v; end`) into one aggregated in-flight record — the
  /// Section X extension for non-blocking send loops. Requires buffered
  /// sends.
  bool AggregateSendLoops = false;

  /// Optional pre-shared intern table / closure memo for the run. Null
  /// (the default) gives every run its own. The batch threads mode passes
  /// a shared cross-session ClosureMemo here so closure work is amortized
  /// across files; a shared memo must be constructed in cross-session
  /// mode (see ClosureMemo) and a shared SymbolTable must be used only by
  /// runs that may share DBM blocks through that memo.
  std::shared_ptr<SymbolTable> SharedSymbols;
  std::shared_ptr<ClosureMemo> SharedMemo;

  /// Warm start from a prior converged run over an edited version of the
  /// same program (see pcfg/Replay.h). Requires SharedSymbols to be the
  /// seed's own table. Null = cold run. Like the shared handles above,
  /// this is runtime wiring, not semantics — a validated seed changes
  /// nothing about the result, only how much of it is recomputed — so it
  /// is excluded from fingerprint().
  std::shared_ptr<const EngineSeed> Seed;

  /// When set, a converged run deposits its exploration trace here for a
  /// future Seed. Ignored (never filled) for budgeted runs. Excluded
  /// from fingerprint() like Seed.
  std::shared_ptr<ReplayCapture> Capture;

  /// When set, the engine fills adoption/live counters for this run.
  std::shared_ptr<ReplayStats> Replay;

  /// Canonical one-line encoding of every field that can change an
  /// analysis result — the engine half of a content-addressed cache key
  /// (api::RequestOptions::fingerprint layers the budget limits on top;
  /// `csdf serve` keys its result cache on the combination). Budget and
  /// the SharedSymbols/SharedMemo handles are runtime wiring, not
  /// semantics, and are excluded.
  std::string fingerprint() const {
    std::string F;
    F += "lin=" + std::to_string(UseLinearMatcher);
    F += ";hsm=" + std::to_string(UseHsmMatcher);
    F += ";sends=" + std::to_string(static_cast<int>(Sends));
    F += ";minp=" + std::to_string(MinProcs);
    F += ";np=" + std::to_string(FixedNp);
    F += ";var=" + std::to_string(MaxVariantsPerConfig);
    F += ";infl=" + std::to_string(MaxInFlight);
    F += ";sets=" + std::to_string(MaxProcSets);
    F += ";widen=" + std::to_string(WidenDelay);
    F += ";states=" + std::to_string(MaxStates);
    F += ";agg=" + std::to_string(AggregateSendLoops);
    F += ";nondet=" + std::to_string(CheckMatchNondet);
    F += ";params={";
    for (const auto &[Name, Value] : Params)
      F += Name + "=" + std::to_string(Value) + ",";
    F += "}";
    return F;
  }

  /// Preset for the Section VII client analysis.
  static AnalysisOptions simpleSymbolic() { return AnalysisOptions(); }

  /// Preset for the Section VIII cartesian client analysis.
  static AnalysisOptions cartesian() {
    AnalysisOptions Opts;
    Opts.UseHsmMatcher = true;
    Opts.Sends = SendSemantics::Buffered;
    return Opts;
  }

  /// Preset with every Section X extension switched on.
  static AnalysisOptions sectionX() {
    AnalysisOptions Opts = cartesian();
    Opts.AggregateSendLoops = true;
    return Opts;
  }
};

} // namespace csdf

#endif // CSDF_PCFG_ANALYSISOPTIONS_H
