//===- pcfg/PcfgState.cpp ----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/PcfgState.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

using namespace csdf;

namespace {

/// True when \p Name is \p Prefix followed by the decimal digits of \p I.
/// The digits are compared in place, last first, without formatting \p I.
bool isNumberedName(std::string_view Name, std::string_view Prefix,
                    size_t I) {
  if (Name.substr(0, Prefix.size()) != Prefix)
    return false;
  size_t End = Name.size();
  do {
    if (End == Prefix.size() ||
        Name[--End] != static_cast<char>('0' + I % 10))
      return false;
    I /= 10;
  } while (I != 0);
  return End == Prefix.size();
}

} // namespace

const std::vector<std::string> &NameSet::names() const {
  static const std::vector<std::string> Empty;
  return Names ? *Names : Empty;
}

void NameSet::insert(const std::string &Name) {
  auto It = std::lower_bound(begin(), end(), Name);
  if (It != end() && *It == Name)
    return;
  if (Names && Names.use_count() == 1) {
    Names->insert(Names->begin() + (It - begin()), Name);
    return;
  }
  auto Fresh = std::make_shared<std::vector<std::string>>();
  Fresh->reserve(size() + 1);
  Fresh->insert(Fresh->end(), begin(), It);
  Fresh->push_back(Name);
  Fresh->insert(Fresh->end(), It, end());
  Names = std::move(Fresh);
}

void NameSet::erase(const std::string &Name) {
  auto It = std::lower_bound(begin(), end(), Name);
  if (It == end() || *It != Name)
    return;
  if (size() == 1) {
    Names.reset();
    return;
  }
  if (Names.use_count() == 1) {
    Names->erase(Names->begin() + (It - begin()));
    return;
  }
  auto Fresh = std::make_shared<std::vector<std::string>>();
  Fresh->reserve(size() - 1);
  Fresh->insert(Fresh->end(), begin(), It);
  Fresh->insert(Fresh->end(), It + 1, end());
  Names = std::move(Fresh);
}

void NameSet::insertAll(const NameSet &Other) {
  if (Other.empty() || sharesStorageWith(Other))
    return;
  if (empty()) {
    Names = Other.Names;
    return;
  }
  if (std::includes(begin(), end(), Other.begin(), Other.end()))
    return;
  auto Fresh = std::make_shared<std::vector<std::string>>();
  Fresh->reserve(size() + Other.size());
  std::set_union(begin(), end(), Other.begin(), Other.end(),
                 std::back_inserter(*Fresh));
  Names = std::move(Fresh);
}

void PcfgState::renameNamespaces(const NamespaceMap &Map) {
  Cg.renameNamespaces(Map);
  const SymbolTable &Syms = Cg.symbols();
  NamespaceRenamer Rename(Map, *Cg.symbolsPtr());
  for (ProcSetEntry &Set : Sets)
    Set.Range = Set.Range.withRenamedVars(Rename, Syms);
  for (PendingSend &P : InFlight) {
    P.Senders = P.Senders.withRenamedVars(Rename, Syms);
    P.AggRange = P.AggRange.withRenamedVars(Rename, Syms);
    for (std::optional<LinearExpr> *L : {&P.DestUniform, &P.Tag, &P.Value})
      if (*L)
        **L = (*L)->withRenamedVar(Rename);
  }
}

void PcfgState::renameSet(size_t Idx, const std::string &NewName) {
  assert(Idx < Sets.size() && "set index out of range");
  ProcSetEntry &Set = Sets[Idx];
  if (Set.Name == NewName)
    return;
  renameNamespaces(NamespaceMap(Set.Name, NewName));
  Set.Name = NewName;
}

void PcfgState::dropSetVars(const ProcSetEntry &Set) {
  Cg.removeNamespace(Set.Name);
}

void PcfgState::canonicalize() {
  // Sort sets by (node, lower-bound form) for a stable order.
  std::vector<size_t> Order(Sets.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  FormOrder Less{Cg.symbols()};
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Sets[A].Node != Sets[B].Node)
      return Sets[A].Node < Sets[B].Node;
    return Less(Sets[A].Range.lb().primary(), Sets[B].Range.lb().primary());
  });
  std::vector<ProcSetEntry> NewSets;
  NewSets.reserve(Sets.size());
  for (size_t I : Order)
    NewSets.push_back(std::move(Sets[I]));
  Sets = std::move(NewSets);

  // Renumber namespaces to p0, p1, ... and pending-send freeze namespaces
  // to q0, q1, ... by FIFO position, so repeat visits to a configuration
  // produce identical variable names. Both renumberings are permutations
  // applied in one simultaneous rename, so no name can collide midway.
  // Sets already named p0, p1, ... in order (the common case on
  // resubmission) add no rename, and neither do freeze namespaces that
  // already read q0, q1, ... in first-appearance order.
  NamespaceMap Renames;
  bool SetsCanonical = true;
  for (size_t I = 0; I < Sets.size() && SetsCanonical; ++I)
    SetsCanonical = isNumberedName(Sets[I].Name, "p", I);
  if (!SetsCanonical) {
    for (size_t I = 0; I < Sets.size(); ++I) {
      std::string Final = "p" + std::to_string(I);
      if (Sets[I].Name != Final)
        Renames.add(std::exchange(Sets[I].Name, Final), Final);
    }
  }

  // Pieces of one partially consumed send share a namespace, so rename
  // per distinct namespace in first-appearance order.
  std::stable_sort(InFlight.begin(), InFlight.end(),
                   [](const PendingSend &A, const PendingSend &B) {
                     return A.Seq < B.Seq;
                   });
  std::vector<std::string> DistinctNs;
  for (const PendingSend &P : InFlight)
    if (std::find(DistinctNs.begin(), DistinctNs.end(), P.FreezeNs) ==
        DistinctNs.end())
      DistinctNs.push_back(P.FreezeNs);
  bool FreezeCanonical = true;
  for (size_t I = 0; I < DistinctNs.size() && FreezeCanonical; ++I)
    FreezeCanonical = isNumberedName(DistinctNs[I], "q", I);
  if (!FreezeCanonical) {
    for (size_t I = 0; I < DistinctNs.size(); ++I) {
      std::string Final = "q" + std::to_string(I);
      if (DistinctNs[I] != Final)
        Renames.add(DistinctNs[I], Final);
    }
    for (PendingSend &P : InFlight)
      P.FreezeNs = "q" + std::to_string(std::find(DistinctNs.begin(),
                                                  DistinctNs.end(),
                                                  P.FreezeNs) -
                                        DistinctNs.begin());
  }
  if (!Renames.empty())
    renameNamespaces(Renames);
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
  return joinMapped(Sets, " ", [&](const ProcSetEntry &Set) {
    return Set.Name + "=" + Set.Range.str(Cg.symbols()) + "@n" +
           std::to_string(Set.Node);
  });
}

std::string PcfgState::str(const Cfg &Graph) const {
  std::ostringstream OS;
  for (const ProcSetEntry &Set : Sets)
    OS << Set.Name << " = " << Set.Range.str(Cg.symbols()) << " at "
       << Graph.nodeLabel(Set.Node) << "\n";
  for (const PendingSend &P : InFlight)
    OS << "in-flight: " << P.Senders.str(Cg.symbols()) << " from "
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
  for (const LinearExpr &Form : Bound.forms())
    if (Form.isGlobal(Cg.symbols()))
      return SymBound(Form);
  LinearExpr AnchorForm = Cg.form(OwnerNs + "." + Slot);
  // Prefer keeping the existing anchor if it is among the aliases (its
  // constraints already describe the combined bound).
  for (const LinearExpr &Form : Bound.forms())
    if (Form == AnchorForm)
      return SymBound(AnchorForm);
  Cg.assign(AnchorForm.var(), Bound.primary());
  return SymBound(AnchorForm);
}

ProcRange reanchorRange(ConstraintGraph &Cg, const std::string &OwnerNs,
                        const ProcRange &Range) {
  return ProcRange(reanchorBound(Cg, OwnerNs, "lo$", Range.lb()),
                   reanchorBound(Cg, OwnerNs, "ub$", Range.ub()));
}

/// Shared shape checks + range combination for join/widen. A widening
/// (\p Iterate set) widens *Iterate and makes Acc.Cg its closure.
bool combineStates(PcfgState &Acc, const PcfgState &New,
                   ConstraintGraph *Iterate) {
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

  // The anchor edits below go to the graph the next combination starts
  // from: the widening iterate, as raw edges, when widening.
  ConstraintGraph &Cg = Iterate ? *Iterate : Acc.Cg;
  if (Iterate) {
    // Widening per Figure 4: join then drop bounds unstable w.r.t. the
    // accumulated state (finite ascent). The left operand is the
    // iterate, never closed; the join reads its closure, Acc.Cg.
    ConstraintGraph Joined = Acc.Cg;
    Joined.joinWith(New.Cg);
    Iterate->widenWith(Joined);
  } else {
    Acc.Cg.joinWith(New.Cg);
  }

  for (size_t I = 0; I < Acc.Sets.size(); ++I) {
    Acc.Sets[I].Range = reanchorRange(Cg, Acc.Sets[I].Name, Ranges[I]);
    Acc.Sets[I].NonUniform.insertAll(New.Sets[I].NonUniform);
  }
  for (size_t I = 0; I < Acc.InFlight.size(); ++I) {
    Acc.InFlight[I].Senders =
        reanchorRange(Cg, Acc.InFlight[I].FreezeNs, Pending[I]);
    if (PendingAgg[I])
      Acc.InFlight[I].AggRange = ProcRange(
          reanchorBound(Cg, Acc.InFlight[I].FreezeNs, "alo$",
                        PendingAgg[I]->lb()),
          reanchorBound(Cg, Acc.InFlight[I].FreezeNs, "ahi$",
                        PendingAgg[I]->ub()));
  }
  if (Iterate) {
    Acc.Cg = *Iterate;
    Acc.Cg.close();
  }
  Acc.NextSeq = std::max(Acc.NextSeq, New.NextSeq);
  Acc.Facts.intersectWith(New.Facts);
  return true;
}

} // namespace

bool csdf::joinStates(PcfgState &Acc, const PcfgState &New) {
  return combineStates(Acc, New, nullptr);
}

bool csdf::widenStates(PcfgState &Acc, const PcfgState &New,
                       ConstraintGraph &Iterate) {
  return combineStates(Acc, New, &Iterate);
}

bool csdf::statesEqual(const PcfgState &A, const PcfgState &B) {
  assert(&A.Cg.symbols() == &B.Cg.symbols() &&
         "bound forms compare by id only within one table");
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
