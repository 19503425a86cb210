//===- pcfg/Matcher.h - Send/receive matching strategies ----------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements matchSendsRecvs (Figure 4): given a send side and a receive
/// side, find sProcs ⊆ senders and rProcs ⊆ receivers such that the send
/// expression surjectively maps sProcs onto rProcs and the composition of
/// the receive and send expressions is the identity on sProcs. Matching
/// must be *exact*: the unmatched leftovers must also be provable, or no
/// match is reported.
///
/// Two strategies, one per client analysis:
///  * Linear (Section VII): `id + c` shifts and uniform `var + c`
///    destinations, resolved through the constraint graph;
///  * HSM (Section VIII): whole-set matching of cartesian expressions via
///    Hierarchical Sequence Maps.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_MATCHER_H
#define CSDF_PCFG_MATCHER_H

#include "hsm/HsmExpr.h"
#include "pcfg/AnalysisOptions.h"
#include "pcfg/PartnerExpr.h"
#include "pcfg/PcfgState.h"

#include <optional>

namespace csdf {

/// One side of a potential match, independent of whether it comes from a
/// blocked process set or an in-flight send record.
struct CommDesc {
  CfgNodeId Node = 0;
  ProcRange Range;
  PartnerExpr Partner;
  /// Original partner expression (used by the HSM strategy).
  const Expr *PartnerAst = nullptr;
  /// True when PartnerAst reads only `id` and global parameters, so it can
  /// be (re)evaluated at any time.
  bool PartnerGlobalsOnly = false;
  /// Classified uniform tag; nullopt when unclassifiable.
  std::optional<LinearExpr> Tag;
};

/// The matched portions and the provable leftovers.
struct MatchResult {
  ProcRange SProcs;
  ProcRange RProcs;
  bool SenderFull = false;
  bool ReceiverFull = false;
  RangeDifference SenderRest;   ///< Valid when !SenderFull.
  RangeDifference ReceiverRest; ///< Valid when !ReceiverFull.
};

/// Attempts to match \p Send against \p Recv under \p Cg and \p Facts.
/// HSM proofs go through \p HsmMemo, the run's memo. On a provable tag
/// conflict sets \p TagConflict (no match possible on this channel, a bug
/// indicator). Returns nullopt when no exact match can be proven.
std::optional<MatchResult> tryMatch(const AnalysisOptions &Opts,
                                    const CommDesc &Send,
                                    const CommDesc &Recv,
                                    const ConstraintGraph &Cg,
                                    const FactEnv &Facts,
                                    HsmMatchMemo &HsmMemo, bool &TagConflict);

/// Converts a symbolic bound to a Poly usable by the HSM strategy: a form
/// whose variable is a global parameter (no namespace dot) or a constant.
std::optional<Poly> boundToGlobalPoly(const SymBound &Bound,
                                      const ConstraintGraph &Cg);

} // namespace csdf

#endif // CSDF_PCFG_MATCHER_H
