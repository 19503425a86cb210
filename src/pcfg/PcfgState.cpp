//===- pcfg/PcfgState.cpp ----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/PcfgState.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace csdf;

namespace {

/// All constraint-graph variables inside \p Name's namespace. Walks the
/// interned ids and resolves names through the shared table, so no name
/// strings are copied for non-matching variables.
std::vector<std::string> namespaceVars(const ConstraintGraph &Cg,
                                       const std::string &Name) {
  std::vector<std::string> Result;
  std::string Prefix = Name + ".";
  const SymbolTable &Syms = Cg.symbols();
  for (VarId Id : Cg.varIds()) {
    const std::string &Var = Syms.name(Id);
    if (Var.rfind(Prefix, 0) == 0)
      Result.push_back(Var);
  }
  return Result;
}

/// Renames every occurrence of namespace \p From to \p To inside a range.
ProcRange renameRangeNamespace(const ProcRange &R, const std::string &From,
                               const std::string &To) {
  std::string Prefix = From + ".";
  return R.withRenamedVars([&](const std::string &Var) {
    if (Var.rfind(Prefix, 0) == 0)
      return To + "." + Var.substr(Prefix.size());
    return Var;
  });
}

} // namespace

void PcfgState::renameNamespace(const std::string &FromNs,
                                const std::string &ToNs) {
  if (FromNs == ToNs)
    return;
  std::vector<std::pair<std::string, std::string>> Renames;
  std::string OldPrefix = FromNs + ".";
  for (const std::string &Var : namespaceVars(Cg, FromNs))
    Renames.emplace_back(Var, ToNs + "." + Var.substr(OldPrefix.size()));
  Cg.renameVars(Renames);
  for (ProcSetEntry &Other : Sets)
    Other.Range = renameRangeNamespace(Other.Range, FromNs, ToNs);
  for (PendingSend &P : InFlight) {
    P.Senders = renameRangeNamespace(P.Senders, FromNs, ToNs);
    P.AggRange = renameRangeNamespace(P.AggRange, FromNs, ToNs);
    auto RenameLin = [&](std::optional<LinearExpr> &L) {
      if (!L || !L->hasVar())
        return;
      if (L->var().rfind(OldPrefix, 0) == 0)
        L = LinearExpr(ToNs + "." + L->var().substr(OldPrefix.size()),
                       L->constant());
    };
    RenameLin(P.DestUniform);
    RenameLin(P.Tag);
    RenameLin(P.Value);
  }
}

void PcfgState::renameSet(size_t Idx, const std::string &NewName) {
  assert(Idx < Sets.size() && "set index out of range");
  ProcSetEntry &Set = Sets[Idx];
  if (Set.Name == NewName)
    return;
  renameNamespace(Set.Name, NewName);
  Set.Name = NewName;
}

void PcfgState::dropSetVars(const ProcSetEntry &Set) {
  Cg.removeVars(namespaceVars(Cg, Set.Name));
}

void PcfgState::canonicalize() {
  // Sort sets by (node, lower-bound form) for a stable order.
  std::vector<size_t> Order(Sets.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Sets[A].Node != Sets[B].Node)
      return Sets[A].Node < Sets[B].Node;
    return Sets[A].Range.lb().primary() < Sets[B].Range.lb().primary();
  });
  std::vector<ProcSetEntry> NewSets;
  NewSets.reserve(Sets.size());
  for (size_t I : Order)
    NewSets.push_back(std::move(Sets[I]));
  Sets = std::move(NewSets);

  // Renumber namespaces to p0, p1, ... via a temporary phase to avoid
  // collisions with existing names.
  for (size_t I = 0; I < Sets.size(); ++I)
    renameSet(I, "tmp$" + std::to_string(I));
  for (size_t I = 0; I < Sets.size(); ++I)
    renameSet(I, "p" + std::to_string(I));

  // Renumber pending-send freeze namespaces by FIFO position so repeat
  // visits to a configuration produce identical variable names. Pieces of
  // one partially consumed send share a namespace, so rename per distinct
  // namespace in first-appearance order.
  std::stable_sort(InFlight.begin(), InFlight.end(),
                   [](const PendingSend &A, const PendingSend &B) {
                     return A.Seq < B.Seq;
                   });
  std::vector<std::string> DistinctNs;
  for (const PendingSend &P : InFlight)
    if (std::find(DistinctNs.begin(), DistinctNs.end(), P.FreezeNs) ==
        DistinctNs.end())
      DistinctNs.push_back(P.FreezeNs);
  for (size_t I = 0; I < DistinctNs.size(); ++I) {
    std::string Tmp = "tmpq$" + std::to_string(I);
    renameNamespace(DistinctNs[I], Tmp);
    for (PendingSend &P : InFlight)
      if (P.FreezeNs == DistinctNs[I])
        P.FreezeNs = Tmp;
  }
  for (size_t I = 0; I < DistinctNs.size(); ++I) {
    std::string Tmp = "tmpq$" + std::to_string(I);
    std::string Final = "q" + std::to_string(I);
    renameNamespace(Tmp, Final);
    for (PendingSend &P : InFlight)
      if (P.FreezeNs == Tmp)
        P.FreezeNs = Final;
  }
  for (size_t I = 0; I < InFlight.size(); ++I)
    InFlight[I].Seq = static_cast<unsigned>(I);
  NextSeq = static_cast<unsigned>(InFlight.size() + DistinctNs.size());
}

std::string PcfgState::configKey() const {
  std::ostringstream OS;
  for (const ProcSetEntry &Set : Sets)
    OS << "n" << Set.Node << ";";
  OS << "|";
  for (const PendingSend &P : InFlight)
    OS << (P.IsAggregate ? "a" : "s") << P.SendNode << ";";
  return OS.str();
}

std::string PcfgState::setsStr() const {
  return joinMapped(Sets, " ", [](const ProcSetEntry &Set) {
    return Set.Name + "=" + Set.Range.str() + "@n" +
           std::to_string(Set.Node);
  });
}

std::string PcfgState::str(const Cfg &Graph) const {
  std::ostringstream OS;
  for (const ProcSetEntry &Set : Sets)
    OS << Set.Name << " = " << Set.Range.str() << " at "
       << Graph.nodeLabel(Set.Node) << "\n";
  for (const PendingSend &P : InFlight)
    OS << "in-flight: " << P.Senders.str() << " from "
       << Graph.nodeLabel(P.SendNode) << "\n";
  OS << "cg: " << Cg.str() << "\n";
  return OS.str();
}

namespace {

/// Reduces a combined bound to a single stable form (see the matching
/// helper in the engine): prefer a constant/global alias, otherwise pin
/// the representative form into the owner's anchor slot. The combined
/// ranges come from widenRange and carry every alias common to both
/// sides; storing aliases would let later assignments to the aliased
/// variables silently change the set's meaning.
SymBound reanchorBound(ConstraintGraph &Cg, const std::string &OwnerNs,
                       const char *Slot, const SymBound &Bound) {
  std::string Anchor = OwnerNs + "." + Slot;
  LinearExpr AnchorForm(Anchor, 0);
  for (const LinearExpr &Form : Bound.forms())
    if (Form.isConstant() || Form.var().find('.') == std::string::npos)
      return SymBound(Form);
  // Prefer keeping the existing anchor if it is among the aliases (its
  // constraints already describe the combined bound).
  for (const LinearExpr &Form : Bound.forms())
    if (Form == AnchorForm)
      return SymBound(AnchorForm);
  Cg.assign(Anchor, Bound.primary());
  return SymBound(AnchorForm);
}

ProcRange reanchorRange(ConstraintGraph &Cg, const std::string &OwnerNs,
                        const ProcRange &Range) {
  return ProcRange(reanchorBound(Cg, OwnerNs, "lo$", Range.lb()),
                   reanchorBound(Cg, OwnerNs, "ub$", Range.ub()));
}

/// Shared shape checks + range combination for join/widen.
bool combineStates(PcfgState &Acc, const PcfgState &New, bool Widen) {
  if (Acc.Sets.size() != New.Sets.size() ||
      Acc.InFlight.size() != New.InFlight.size())
    return false;
  for (size_t I = 0; I < Acc.Sets.size(); ++I) {
    if (Acc.Sets[I].Node != New.Sets[I].Node)
      return false;
    if (Acc.Sets[I].Name != New.Sets[I].Name)
      return false; // Both must be canonicalized.
  }
  for (size_t I = 0; I < Acc.InFlight.size(); ++I) {
    if (Acc.InFlight[I].SendNode != New.InFlight[I].SendNode)
      return false;
    if (Acc.InFlight[I].IsAggregate != New.InFlight[I].IsAggregate)
      return false;
  }

  // Ranges first (they consult both old and new graphs).
  std::vector<ProcRange> Ranges;
  for (size_t I = 0; I < Acc.Sets.size(); ++I) {
    if (auto W =
            widenRange(Acc.Sets[I].Range, Acc.Cg, New.Sets[I].Range, New.Cg))
      Ranges.push_back(*W);
    else
      return false;
  }
  std::vector<ProcRange> Pending;
  std::vector<std::optional<ProcRange>> PendingAgg;
  for (size_t I = 0; I < Acc.InFlight.size(); ++I) {
    if (auto W = widenRange(Acc.InFlight[I].Senders, Acc.Cg,
                            New.InFlight[I].Senders, New.Cg))
      Pending.push_back(*W);
    else
      return false;
    if (Acc.InFlight[I].IsAggregate) {
      auto WA = widenRange(Acc.InFlight[I].AggRange, Acc.Cg,
                           New.InFlight[I].AggRange, New.Cg);
      if (!WA)
        return false;
      PendingAgg.push_back(*WA);
    } else {
      PendingAgg.push_back(std::nullopt);
    }
  }

  if (Widen) {
    // Widening per Figure 4: join then drop bounds unstable w.r.t. the
    // accumulated state (finite ascent).
    ConstraintGraph Joined = Acc.Cg;
    Joined.joinWith(New.Cg);
    Acc.Cg.widenWith(Joined);
  } else {
    Acc.Cg.joinWith(New.Cg);
  }

  for (size_t I = 0; I < Acc.Sets.size(); ++I) {
    Acc.Sets[I].Range =
        reanchorRange(Acc.Cg, Acc.Sets[I].Name, Ranges[I]);
    Acc.Sets[I].NonUniform.insert(New.Sets[I].NonUniform.begin(),
                                  New.Sets[I].NonUniform.end());
  }
  for (size_t I = 0; I < Acc.InFlight.size(); ++I) {
    Acc.InFlight[I].Senders =
        reanchorRange(Acc.Cg, Acc.InFlight[I].FreezeNs, Pending[I]);
    if (PendingAgg[I])
      Acc.InFlight[I].AggRange = ProcRange(
          reanchorBound(Acc.Cg, Acc.InFlight[I].FreezeNs, "alo$",
                        PendingAgg[I]->lb()),
          reanchorBound(Acc.Cg, Acc.InFlight[I].FreezeNs, "ahi$",
                        PendingAgg[I]->ub()));
  }
  Acc.NextSeq = std::max(Acc.NextSeq, New.NextSeq);
  Acc.Facts.intersectWith(New.Facts);
  return true;
}

} // namespace

bool csdf::joinStates(PcfgState &Acc, const PcfgState &New) {
  return combineStates(Acc, New, /*Widen=*/false);
}

bool csdf::widenStates(PcfgState &Acc, const PcfgState &New) {
  return combineStates(Acc, New, /*Widen=*/true);
}

bool csdf::statesEqual(const PcfgState &A, const PcfgState &B) {
  if (A.Sets.size() != B.Sets.size() ||
      A.InFlight.size() != B.InFlight.size())
    return false;
  for (size_t I = 0; I < A.Sets.size(); ++I) {
    if (A.Sets[I].Node != B.Sets[I].Node)
      return false;
    if (!(A.Sets[I].Range == B.Sets[I].Range))
      return false;
  }
  for (size_t I = 0; I < A.InFlight.size(); ++I) {
    if (A.InFlight[I].SendNode != B.InFlight[I].SendNode)
      return false;
    if (!(A.InFlight[I].Senders == B.InFlight[I].Senders))
      return false;
    if (A.InFlight[I].IsAggregate != B.InFlight[I].IsAggregate)
      return false;
    if (A.InFlight[I].IsAggregate &&
        !(A.InFlight[I].AggRange == B.InFlight[I].AggRange))
      return false;
  }
  if (!(A.Facts == B.Facts))
    return false;
  return A.Cg.equals(B.Cg);
}
