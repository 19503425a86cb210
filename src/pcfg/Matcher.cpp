//===- pcfg/Matcher.cpp --------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/Matcher.h"

#include "support/Budget.h"

using namespace csdf;

namespace {

/// Fills MatchResult leftovers for one side. Returns false when the
/// leftover split is not provable (exactness requirement).
bool computeSide(const ProcRange &Whole, const ProcRange &Matched,
                 bool &Full, RangeDifference &Rest,
                 const ConstraintGraph &Cg) {
  if (provablyEqual(Whole, Matched, Cg)) {
    Full = true;
    return true;
  }
  auto Diff = tryDifference(Whole, Matched, Cg);
  if (!Diff)
    return false;
  Full = false;
  Rest = *Diff;
  return true;
}

/// Builds a MatchResult from candidate matched subranges, checking
/// non-emptiness and exact splits.
std::optional<MatchResult> finalize(const ProcRange &Senders,
                                    const ProcRange &SProcs,
                                    const ProcRange &Receivers,
                                    const ProcRange &RProcs,
                                    const ConstraintGraph &Cg) {
  if (!SProcs.provablyNonEmpty(Cg) || !RProcs.provablyNonEmpty(Cg))
    return std::nullopt;
  if (!provablyContains(Senders, SProcs, Cg) ||
      !provablyContains(Receivers, RProcs, Cg))
    return std::nullopt;
  MatchResult R;
  R.SProcs = SProcs;
  R.RProcs = RProcs;
  if (!computeSide(Senders, SProcs, R.SenderFull, R.SenderRest, Cg))
    return std::nullopt;
  if (!computeSide(Receivers, RProcs, R.ReceiverFull, R.ReceiverRest, Cg))
    return std::nullopt;
  return R;
}

/// The Section VII strategy over `id + c` and uniform expressions.
std::optional<MatchResult> linearMatch(const CommDesc &Send,
                                       const CommDesc &Recv,
                                       const ConstraintGraph &Cg) {
  const PartnerExpr &D = Send.Partner;
  const PartnerExpr &S = Recv.Partner;
  if (D.isComplex() || S.isComplex())
    return std::nullopt;

  if (D.isIdPlusC() && S.isIdPlusC()) {
    // Composition (id+c1)+c2 is the identity iff c1 + c2 == 0.
    if (D.Offset + S.Offset != 0)
      return std::nullopt;
    ProcRange Image = Send.Range.shifted(D.Offset);
    auto RProcs = tryIntersect(Image, Recv.Range, Cg);
    if (!RProcs)
      return std::nullopt;
    ProcRange SProcs = RProcs->shifted(-D.Offset);
    return finalize(Send.Range, SProcs, Recv.Range, *RProcs, Cg);
  }

  if (D.isIdPlusC() && S.isUniform()) {
    // Receivers all expect source E2; only rank E2 + c1 can be satisfied,
    // by sender E2.
    SymBound Src(S.Value);
    Src.enrich(Cg);
    ProcRange SProcs(Src, Src);
    ProcRange RProcs(Src.plus(D.Offset), Src.plus(D.Offset));
    return finalize(Send.Range, SProcs, Recv.Range, RProcs, Cg);
  }

  if (D.isUniform()) {
    // All senders target rank E1, so only the single receiver E1 can be
    // satisfied, and its source expression pins the unique sender: the
    // matched pair is ({claimed}, {E1}) with both sides split off their
    // sets. Channels are per ordered pair, so other senders' messages to
    // E1 do not interfere with this sender's FIFO.
    SymBound Dest(D.Value);
    Dest.enrich(Cg);
    ProcRange RProcs(Dest, Dest);
    SymBound Claimed = S.isIdPlusC() ? Dest.plus(S.Offset) : SymBound(S.Value);
    Claimed.enrich(Cg);
    ProcRange SProcs(Claimed, Claimed);
    return finalize(Send.Range, SProcs, Recv.Range, RProcs, Cg);
  }

  return std::nullopt;
}

/// The Section VIII strategy: whole-set HSM matching.
std::optional<MatchResult> hsmMatch(const CommDesc &Send,
                                    const CommDesc &Recv,
                                    const ConstraintGraph &Cg,
                                    const FactEnv &Facts,
                                    HsmMatchMemo &Memo) {
  if (!Send.PartnerAst || !Recv.PartnerAst)
    return std::nullopt;
  if (!Send.PartnerGlobalsOnly || !Recv.PartnerGlobalsOnly)
    return std::nullopt;

  auto SLo = boundToGlobalPoly(Send.Range.lb(), Cg);
  auto SHi = boundToGlobalPoly(Send.Range.ub(), Cg);
  auto RLo = boundToGlobalPoly(Recv.Range.lb(), Cg);
  auto RHi = boundToGlobalPoly(Recv.Range.ub(), Cg);
  if (!SLo || !SHi || !RLo || !RHi)
    return std::nullopt;
  Poly SCount = SHi->minus(*SLo).plus(Poly(1));
  Poly RCount = RHi->minus(*RLo).plus(Poly(1));

  if (!Memo.match(Send.PartnerAst, std::move(*SLo), std::move(SCount),
                  Recv.PartnerAst, std::move(*RLo), std::move(RCount), Facts))
    return std::nullopt;

  MatchResult R;
  R.SProcs = Send.Range;
  R.RProcs = Recv.Range;
  R.SenderFull = true;
  R.ReceiverFull = true;
  return R;
}

} // namespace

std::optional<Poly> csdf::boundToGlobalPoly(const SymBound &Bound,
                                            const ConstraintGraph &Cg) {
  SymBound Enriched = Bound;
  Enriched.enrich(Cg);
  for (const LinearExpr &Form : Enriched.forms()) {
    if (Form.isConstant())
      return Poly(Form.constant());
    if (Form.isGlobal(Cg.symbols()))
      return Poly::var(Cg.symbols().name(Form.var()))
          .plus(Poly(Form.constant()));
  }
  return std::nullopt;
}

std::optional<MatchResult> csdf::tryMatch(const AnalysisOptions &Opts,
                                          const CommDesc &Send,
                                          const CommDesc &Recv,
                                          const ConstraintGraph &Cg,
                                          const FactEnv &Facts,
                                          HsmMatchMemo &HsmMemo,
                                          bool &TagConflict) {
  TagConflict = false;
  budgetCheckpoint();
  // Tags must be provably equal for a match; provably unequal tags are a
  // diagnosable bug (the channel head can never be consumed).
  if (!Send.Tag || !Recv.Tag)
    return std::nullopt;
  // Resolve both tags once; the equality and strict-order probes below
  // reuse the interned forms.
  ConstraintGraph::ResolvedForm S = Cg.resolve(*Send.Tag);
  ConstraintGraph::ResolvedForm R = Cg.resolve(*Recv.Tag);
  if (!(Cg.provesLE(S, R) && Cg.provesLE(R, S))) {
    // Distinguish "provably different" from "unknown".
    ConstraintGraph::ResolvedForm S1 = S, R1 = R;
    S1.C += 1;
    R1.C += 1;
    if (Cg.provesLE(S1, R) || Cg.provesLE(R1, S))
      TagConflict = true;
    return std::nullopt;
  }

  if (Opts.UseLinearMatcher)
    if (auto R = linearMatch(Send, Recv, Cg))
      return R;
  if (Opts.UseHsmMatcher)
    if (auto R = hsmMatch(Send, Recv, Cg, Facts, HsmMemo))
      return R;
  return std::nullopt;
}
