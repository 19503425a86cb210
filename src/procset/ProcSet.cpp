//===- procset/ProcSet.cpp -----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "procset/ProcSet.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace csdf;

void SymBound::addForm(const LinearExpr &Form, const SymbolTable &Syms) {
  // Most adds are repeats (enrich re-finds the forms a bound holds); an
  // id scan settles them without comparing names.
  if (std::find(Forms.begin(), Forms.end(), Form) != Forms.end())
    return;
  Forms.insert(std::lower_bound(Forms.begin(), Forms.end(), Form,
                                FormOrder{Syms}),
               Form);
}

void SymBound::enrich(const ConstraintGraph &G) {
  const FormList Original = Forms;
  for (const LinearExpr &F : Original)
    for (const LinearExpr &Alias : G.equivalentForms(F))
      addForm(Alias, G.symbols());
}

SymBound SymBound::plus(std::int64_t Delta) const {
  SymBound R = *this;
  for (LinearExpr &F : R.Forms)
    F = F.plus(Delta);
  return R;
}

std::optional<SymBound> SymBound::intersectForms(const SymBound &O) const {
  // Filtering this bound's forms keeps them in FormOrder.
  SymBound R;
  for (const LinearExpr &F : Forms)
    if (std::find(O.Forms.begin(), O.Forms.end(), F) != O.Forms.end())
      R.Forms.push_back(F);
  if (R.Forms.empty())
    return std::nullopt;
  return R;
}

namespace {

using ResolvedForms =
    InlineVector<ConstraintGraph::ResolvedForm, FormList::InlineCapacity>;

/// Resolves every form of a bound once, so the A x B comparison loops
/// below search each form's slot once instead of once per pair.
ResolvedForms resolveForms(const FormList &Forms, const ConstraintGraph &G,
                           std::int64_t Delta) {
  ResolvedForms R;
  for (const LinearExpr &F : Forms) {
    ConstraintGraph::ResolvedForm Form = G.resolve(F);
    Form.C += Delta;
    R.push_back(Form);
  }
  return R;
}

} // namespace

bool SymBound::provablyLE(const SymBound &O, const ConstraintGraph &G,
                          std::int64_t Slack) const {
  ResolvedForms As = resolveForms(Forms, G, 0);
  ResolvedForms Bs = resolveForms(O.Forms, G, Slack);
  for (const auto &A : As)
    for (const auto &B : Bs)
      if (G.provesLE(A, B))
        return true;
  return false;
}

bool SymBound::provablyEQ(const SymBound &O, const ConstraintGraph &G,
                          std::int64_t Offset) const {
  ResolvedForms As = resolveForms(Forms, G, 0);
  ResolvedForms Bs = resolveForms(O.Forms, G, Offset);
  for (const auto &A : As)
    for (const auto &B : Bs)
      if (G.provesLE(A, B) && G.provesLE(B, A))
        return true;
  return false;
}

std::string SymBound::str(const SymbolTable &Syms) const {
  if (Forms.size() == 1)
    return Forms.front().str(Syms);
  return "{" +
         joinMapped(Forms, ",",
                    [&](const LinearExpr &F) { return F.str(Syms); }) +
         "}";
}

bool ProcRange::provablyEmpty(const ConstraintGraph &G) const {
  return Ub.provablyLE(Lb, G, /*Slack=*/-1);
}

bool ProcRange::provablyNonEmpty(const ConstraintGraph &G) const {
  return Lb.provablyLE(Ub, G);
}

bool ProcRange::provablySingleton(const ConstraintGraph &G) const {
  return Lb.provablyEQ(Ub, G);
}

bool csdf::provablyEqual(const ProcRange &A, const ProcRange &B,
                         const ConstraintGraph &G) {
  return A.lb().provablyEQ(B.lb(), G) && A.ub().provablyEQ(B.ub(), G);
}

bool csdf::provablyAdjacent(const ProcRange &A, const ProcRange &B,
                            const ConstraintGraph &G) {
  return B.lb().provablyEQ(A.ub(), G, /*Offset=*/1);
}

bool csdf::provablyContains(const ProcRange &R, const ProcRange &M,
                            const ConstraintGraph &G) {
  return R.lb().provablyLE(M.lb(), G) && M.ub().provablyLE(R.ub(), G);
}

bool csdf::provablyDisjoint(const ProcRange &A, const ProcRange &B,
                            const ConstraintGraph &G) {
  return A.ub().provablyLE(B.lb(), G, /*Slack=*/-1) ||
         B.ub().provablyLE(A.lb(), G, /*Slack=*/-1);
}

std::optional<ProcRange> csdf::tryMerge(const ProcRange &A, const ProcRange &B,
                                        const ConstraintGraph &G) {
  if (provablyAdjacent(A, B, G))
    return ProcRange(A.lb(), B.ub());
  if (provablyAdjacent(B, A, G))
    return ProcRange(B.lb(), A.ub());
  if (provablyContains(A, B, G))
    return A;
  if (provablyContains(B, A, G))
    return B;
  return std::nullopt;
}

std::optional<RangeDifference> csdf::tryDifference(const ProcRange &R,
                                                   const ProcRange &M,
                                                   const ConstraintGraph &G) {
  if (!provablyContains(R, M, G))
    return std::nullopt;
  // Leftovers whose emptiness is not yet decidable are kept as possibly
  // empty sets — the paper deletes process sets "because some of them were
  // discovered to be empty", i.e. emptiness may be discovered later (for
  // instance on a loop's exit edge where i == np becomes known).
  RangeDifference Diff;
  ProcRange Before(R.lb(), M.lb().plus(-1));
  if (!Before.provablyEmpty(G))
    Diff.Before = Before;
  ProcRange After(M.ub().plus(1), R.ub());
  if (!After.provablyEmpty(G))
    Diff.After = After;
  return Diff;
}

std::optional<ProcRange> csdf::tryIntersect(const ProcRange &A,
                                            const ProcRange &B,
                                            const ConstraintGraph &G) {
  // Lower bound: the provably larger of the two.
  SymBound Lo;
  if (A.lb().provablyLE(B.lb(), G))
    Lo = B.lb();
  else if (B.lb().provablyLE(A.lb(), G))
    Lo = A.lb();
  else
    return std::nullopt;
  SymBound Hi;
  if (A.ub().provablyLE(B.ub(), G))
    Hi = A.ub();
  else if (B.ub().provablyLE(A.ub(), G))
    Hi = B.ub();
  else
    return std::nullopt;
  return ProcRange(Lo, Hi);
}

std::optional<ProcRange> csdf::widenRange(const ProcRange &OldR,
                                          const ConstraintGraph &OldG,
                                          const ProcRange &NewR,
                                          const ConstraintGraph &NewG) {
  assert(&OldG.symbols() == &NewG.symbols() &&
         "forms compare by id only within one table");
  ProcRange A = OldR;
  A.enrich(OldG);
  ProcRange B = NewR;
  B.enrich(NewG);
  auto Lb = A.lb().intersectForms(B.lb());
  auto Ub = A.ub().intersectForms(B.ub());
  if (!Lb || !Ub)
    return std::nullopt;
  return ProcRange(*Lb, *Ub);
}
