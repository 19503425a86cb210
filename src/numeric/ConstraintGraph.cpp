//===- numeric/ConstraintGraph.cpp ----------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/ConstraintGraph.h"

#include "numeric/ClosureKernel.h"
#include "support/Budget.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace csdf;

static const char *const ZeroVarName = "$0";

/// Renames must keep a graph's variables distinct.
static void assertDistinct([[maybe_unused]] const std::vector<VarId> &Vars) {
#ifndef NDEBUG
  for (unsigned I = 0; I < Vars.size(); ++I)
    for (unsigned J = I + 1; J < Vars.size(); ++J)
      assert(Vars[I] != Vars[J] && "rename produced duplicate variables");
#endif
}

//===----------------------------------------------------------------------===//
// ClosureMemo
//===----------------------------------------------------------------------===//

std::shared_ptr<DbmShared>
ClosureMemo::lookup(std::uint64_t Key, DbmBackend Backend,
                    const std::vector<std::int64_t> &Pre) const {
  std::lock_guard<std::mutex> L(M);
  auto [Lo, Hi] = Entries.equal_range(Key);
  for (auto It = Lo; It != Hi; ++It)
    if (It->second.Backend == Backend && It->second.Pre == Pre)
      return It->second.Closed;
  return nullptr;
}

void ClosureMemo::insert(std::uint64_t Key, DbmBackend Backend,
                         std::vector<std::int64_t> Pre,
                         std::shared_ptr<DbmShared> Closed) {
  if (CrossSession && Closed) {
    // The memo outlives the inserting session's stack-local budget; keep
    // no charge (and no dangling Accountant) on blocks it retains. Safe
    // because reaccount() only ever runs on unshared blocks, so nothing
    // re-binds this block to a later thread's budget.
    if (Closed->Accountant && Closed->AccountedBytes)
      Closed->Accountant->accountBytes(
          -static_cast<std::int64_t>(Closed->AccountedBytes));
    Closed->Accountant = nullptr;
    Closed->AccountedBytes = 0;
  }
  std::lock_guard<std::mutex> L(M);
  if (Entries.size() >= MaxEntries)
    Entries.clear();
  Entries.emplace(Key, Entry{Backend, std::move(Pre), std::move(Closed)});
}

std::size_t ClosureMemo::size() const {
  std::lock_guard<std::mutex> L(M);
  return Entries.size();
}

void ClosureMemo::forEach(
    const std::function<void(std::uint64_t, DbmBackend,
                             const std::vector<std::int64_t> &,
                             const DbmShared &)> &Fn) const {
  std::lock_guard<std::mutex> L(M);
  for (const auto &[Key, E] : Entries)
    if (E.Closed && E.Closed->M)
      Fn(Key, E.Backend, E.Pre, *E.Closed);
}

//===----------------------------------------------------------------------===//
// Construction and copying
//===----------------------------------------------------------------------===//

ConstraintGraph::ConstraintGraph(DbmBackend Backend, StatsRegistry *Stats,
                                 SymbolTablePtr Syms, ClosureMemoPtr Memo)
    : Backend(Backend), Stats(Stats),
      Syms(Syms ? std::move(Syms) : std::make_shared<SymbolTable>()),
      Memo(std::move(Memo)), Cow(Backend) {
  if (Stats) {
    Cells.CowCopies = &Stats->counterCell("cg.cow.copies");
    Cells.CowDetaches = &Stats->counterCell("cg.cow.detaches");
    Cells.FullCalls = &Stats->counterCell("cg.closure.full.calls");
    Cells.FullVarsum = &Stats->counterCell("cg.closure.full.varsum");
    Cells.IncrCalls = &Stats->counterCell("cg.closure.incr.calls");
    Cells.IncrVarsum = &Stats->counterCell("cg.closure.incr.varsum");
    Cells.MemoHits = &Stats->counterCell("cg.closure.memo.hits");
    Cells.MemoMisses = &Stats->counterCell("cg.closure.memo.misses");
    Cells.ClosureNanos = &Stats->nanosCell("cg.closure.seconds");
  }
  Vars.push_back(this->Syms->intern(ZeroVarName));
  DbmShared &B = Cow.rwShared(); // Freshly created: nothing shares it yet.
  B.M->resize(1);
  B.M->set(0, 0, 0);
}

ConstraintGraph::ConstraintGraph(const ConstraintGraph &O)
    : Backend(O.Backend), Stats(O.Stats), Cells(O.Cells), Syms(O.Syms),
      Memo(O.Memo), Vars(O.Vars), Cow(O.Cow) {
  bump(Cells.CowCopies);
}

ConstraintGraph &ConstraintGraph::operator=(const ConstraintGraph &O) {
  if (this == &O)
    return *this;
  Backend = O.Backend;
  Stats = O.Stats;
  Cells = O.Cells;
  Syms = O.Syms;
  Memo = O.Memo;
  Vars = O.Vars;
  Cow = O.Cow;
  bump(Cells.CowCopies);
  return *this;
}

DbmShared &ConstraintGraph::mutableBlock() {
  if (Cow.detach())
    bump(Cells.CowDetaches);
  return Cow.rwShared();
}

//===----------------------------------------------------------------------===//
// Variables
//===----------------------------------------------------------------------===//

std::optional<unsigned> ConstraintGraph::slotOf(VarId Id) const {
  for (unsigned I = 0; I < Vars.size(); ++I)
    if (Vars[I] == Id)
      return I;
  return std::nullopt;
}

unsigned ConstraintGraph::ensureSlot(VarId Id) {
  if (auto Slot = slotOf(Id))
    return *Slot;
  Vars.push_back(Id);
  unsigned Slot = static_cast<unsigned>(Vars.size()) - 1;
  // A shared block is copied and grown in one pass.
  if (Cow.detachAs(
          [&](const DbmStorage &M) { return M.grownClone(Slot + 1); }))
    bump(Cells.CowDetaches);
  else
    Cow.rwShared().M->resize(Slot + 1);
  DbmShared &B = Cow.rwShared();
  B.M->set(Slot, Slot, 0);
  B.reaccount();
  // Adding an unconstrained variable preserves closure.
  return Slot;
}

std::optional<unsigned>
ConstraintGraph::slotForOther(const ConstraintGraph &O, VarId Id) const {
  if (Syms == O.Syms)
    return slotOf(Id);
  auto Mine = Syms->lookup(O.Syms->name(Id));
  if (!Mine)
    return std::nullopt;
  return slotOf(*Mine);
}

unsigned ConstraintGraph::ensureVar(const std::string &Name) {
  assert(Name != ZeroVarName && "the zero variable is internal");
  return ensureSlot(Syms->intern(Name));
}

std::optional<unsigned> ConstraintGraph::findVar(const std::string &Name)
    const {
  auto Id = Syms->lookup(Name);
  if (!Id)
    return std::nullopt;
  return varSlot(*Id);
}

std::optional<unsigned> ConstraintGraph::varSlot(VarId Id) const {
  auto Slot = slotOf(Id);
  if (!Slot || *Slot == zeroSlot())
    return std::nullopt;
  return Slot;
}

std::vector<std::string> ConstraintGraph::varNames() const {
  std::vector<std::string> Names;
  Names.reserve(Vars.size() - 1);
  for (unsigned I = 1; I < Vars.size(); ++I)
    Names.push_back(Syms->name(Vars[I]));
  return Names;
}

void ConstraintGraph::removeVars(const std::vector<std::string> &Names) {
  std::vector<unsigned> Victims;
  Victims.reserve(Names.size());
  for (const std::string &Name : Names)
    if (auto Slot = findVar(Name))
      Victims.push_back(*Slot);
  removeSlots(std::move(Victims));
}

void ConstraintGraph::removeSlots(std::vector<unsigned> Victims) {
  if (Victims.empty())
    return;
  std::sort(Victims.begin(), Victims.end());
  Victims.erase(std::unique(Victims.begin(), Victims.end()), Victims.end());
  close();
  // A shared block is projected while it is copied.
  if (Cow.detachAs(
          [&](const DbmStorage &M) { return M.projectedClone(Victims); }))
    bump(Cells.CowDetaches);
  else
    Cow.rwShared().M->removeVars(Victims);
  // Projection of a closed matrix is closed, and projecting several
  // variables at once yields exactly the matrix that removing them one by
  // one would.
  auto Victim = Victims.begin();
  unsigned Kept = 0;
  for (unsigned I = 0; I < Vars.size(); ++I) {
    if (Victim != Victims.end() && *Victim == I) {
      ++Victim;
      continue;
    }
    Vars[Kept++] = Vars[I];
  }
  Vars.resize(Kept);
}

void ConstraintGraph::renameVars(
    const std::vector<std::pair<std::string, std::string>> &Renames) {
  for (VarId &Id : Vars) {
    const std::string &Name = Syms->name(Id);
    for (const auto &[From, To] : Renames) {
      if (Name == From) {
        Id = Syms->intern(To);
        break;
      }
    }
  }
  assertDistinct(Vars);
}

void ConstraintGraph::renameNamespaces(const NamespaceMap &Map) {
  NamespaceRenamer Rename(Map, *Syms);
  for (unsigned I = 1; I < Vars.size(); ++I)
    Vars[I] = Rename(Vars[I]);
  assertDistinct(Vars);
}

void ConstraintGraph::copyNamespace(std::string_view From,
                                    const std::string &To, bool SkipAnchors) {
  VarId ToId = InvalidVarId;
  // Variables appended below lie in To, so the original ones suffice.
  const unsigned N = static_cast<unsigned>(Vars.size());
  for (unsigned I = 1; I < N; ++I) {
    std::string_view Name = Syms->name(Vars[I]);
    if (!inNamespace(Name, From) ||
        (SkipAnchors && isAnchorName(Name.substr(From.size() + 1))))
      continue;
    if (ToId == InvalidVarId)
      ToId = Syms->intern(To);
    unsigned Copy = ensureSlot(Syms->renamed(Vars[I], ToId));
    addEdge(Copy, I, 0);
    addEdge(I, Copy, 0);
  }
}

void ConstraintGraph::moveNamespace(std::string_view From,
                                    const std::string &To) {
  std::vector<unsigned> Moved, Anchors;
  for (unsigned I = 1; I < Vars.size(); ++I) {
    std::string_view Name = Syms->name(Vars[I]);
    if (inNamespace(Name, From))
      (isAnchorName(Name.substr(From.size() + 1)) ? Anchors : Moved)
          .push_back(I);
  }
  if (Moved.empty()) {
    removeSlots(std::move(Anchors));
    return;
  }
  close();
  // The copy of variable I would take row I and column I, and repairing
  // closure after its two edges relaxes every row through I; the copy
  // then stands where I stood once the original is projected out.
  for (unsigned I : Moved) {
    if (!Cow.ro().Feasible)
      break;
    relaxThroughPivot(I);
  }
  VarId ToId = Syms->intern(To);
  for (unsigned I : Moved)
    Vars[I] = Syms->renamed(Vars[I], ToId);
  assertDistinct(Vars);
  removeSlots(std::move(Anchors));
}

//===----------------------------------------------------------------------===//
// Constraints and transfer
//===----------------------------------------------------------------------===//

std::pair<unsigned, std::int64_t> ConstraintGraph::encode(
    const LinearExpr &E) {
  if (E.isConstant())
    return {zeroSlot(), E.constant()};
  return {ensureSlot(E.var()), E.constant()};
}

std::optional<std::pair<unsigned, std::int64_t>>
ConstraintGraph::encodeConst(const LinearExpr &E) const {
  if (E.isConstant())
    return std::pair(zeroSlot(), E.constant());
  auto Slot = varSlot(E.var());
  if (!Slot)
    return std::nullopt;
  return std::pair(*Slot, E.constant());
}

void ConstraintGraph::addEdge(unsigned I, unsigned J, std::int64_t C) {
  if (!Cow.ro().Feasible)
    return;
  if (I == J) {
    if (C < 0)
      mutableBlock().Feasible = false;
    return;
  }
  std::int64_t Old = Cow.ro().M->get(I, J);
  if (C >= Old)
    return;
  // On a warm matrix (closed at least once — the engine's steady state),
  // repair a previously pending edge eagerly so the O(n^2) path stays
  // applicable for this one. A cold matrix is still being built: batch
  // every tightening and pay one full closure at the first query, which
  // the ClosureMemo can satisfy when an identical graph was built before.
  if (!Cow.ro().Closed && Cow.ro().PendingEdge && Cow.ro().EverClosed)
    close();
  DbmShared &B = mutableBlock();
  B.M->set(I, J, C);
  if (B.Closed) {
    B.Closed = false;
    B.PendingEdge = {I, J};
  } else {
    B.PendingEdge.reset();
  }
}

void ConstraintGraph::addLE(const std::string &A, const std::string &B,
                            std::int64_t C) {
  addEdge(ensureVar(A), ensureVar(B), C);
}

void ConstraintGraph::addLE(const LinearExpr &Lhs, const LinearExpr &Rhs) {
  auto [I, CI] = encode(Lhs);
  auto [J, CJ] = encode(Rhs);
  addEdge(I, J, CJ - CI);
}

void ConstraintGraph::addEQ(const LinearExpr &Lhs, const LinearExpr &Rhs) {
  addLE(Lhs, Rhs);
  addLE(Rhs, Lhs);
}

void ConstraintGraph::addUpperBound(const std::string &Var, std::int64_t C) {
  addEdge(ensureVar(Var), zeroSlot(), C);
}

void ConstraintGraph::addLowerBound(const std::string &Var, std::int64_t C) {
  addEdge(zeroSlot(), ensureVar(Var), -C);
}

void ConstraintGraph::assign(VarId X, const LinearExpr &E) {
  if (E.var() == X) {
    // X := X + c — shift every bound that mentions X.
    std::int64_t C = E.constant();
    if (C == 0)
      return;
    close();
    if (!Cow.ro().Feasible)
      return;
    unsigned I = ensureSlot(X);
    unsigned N = static_cast<unsigned>(Vars.size());
    kernel::visit(*mutableBlock().M, [&](auto &M) {
      for (unsigned J = 0; J < N; ++J) {
        if (J == I)
          continue;
        M.set(I, J, dbmAdd(M.get(I, J), C));
        M.set(J, I, dbmAdd(M.get(J, I), -C));
      }
    });
    // Uniform row/column shifts preserve closure.
    return;
  }
  if (auto Slot = varSlot(X))
    havocSlot(*Slot);
  addEQ(LinearExpr(X, 0), E);
}

void ConstraintGraph::havoc(const std::string &X) {
  if (auto Slot = findVar(X))
    havocSlot(*Slot);
}

void ConstraintGraph::havocSlot(unsigned Slot) {
  close();
  unsigned N = static_cast<unsigned>(Vars.size());
  kernel::visit(*mutableBlock().M, [&](auto &M) {
    for (unsigned J = 0; J < N; ++J) {
      if (J == Slot)
        continue;
      M.set(Slot, J, DbmInfinity);
      M.set(J, Slot, DbmInfinity);
    }
  });
  // Dropping all edges of one variable preserves closure.
}

//===----------------------------------------------------------------------===//
// Closure
//===----------------------------------------------------------------------===//

bool ConstraintGraph::isFeasible() const {
  close();
  return Cow.ro().Feasible;
}

void ConstraintGraph::close() const {
  {
    const DbmShared &B = Cow.ro();
    if (B.Closed || !B.Feasible)
      return;
  }
  // Closing canonicalizes the represented constraint set without changing
  // it, so the work happens in the *shared* block: every copy still
  // sharing it observes the result.
  DbmShared &B = Cow.rwShared();
  B.EverClosed = true;
  if (B.PendingEdge) {
    auto [I, J] = *B.PendingEdge;
    B.PendingEdge.reset();
    closeAfterEdge(B, I, J);
    B.Closed = true;
    return;
  }
  if (Memo) {
    std::uint64_t Key = dbmFingerprint(*B.M);
    std::vector<std::int64_t> Pre = dbmSnapshot(*B.M);
    if (auto Hit = Memo->lookup(Key, Backend, Pre)) {
      Cow.adopt(std::move(Hit));
      bump(Cells.MemoHits);
      return;
    }
    fullClose(B);
    B.Closed = true;
    bump(Cells.MemoMisses);
    Memo->insert(Key, Backend, std::move(Pre), Cow.block());
    return;
  }
  fullClose(B);
  B.Closed = true;
}

void ConstraintGraph::detachAccounting() const {
  DbmShared &B = Cow.rwShared();
  if (B.Accountant && B.AccountedBytes)
    B.Accountant->accountBytes(-static_cast<std::int64_t>(B.AccountedBytes));
  B.Accountant = nullptr;
  B.AccountedBytes = 0;
}

void ConstraintGraph::fullClose(DbmShared &B) const {
  unsigned N = static_cast<unsigned>(Vars.size());
  bump(Cells.FullCalls);
  bump(Cells.FullVarsum, N);
  ScopedNanoTimer Timer(Cells.ClosureNanos);
  if (!kernel::fullClose(*B.M))
    B.Feasible = false;
}

void ConstraintGraph::closeAfterEdge(DbmShared &B, unsigned I,
                                     unsigned J) const {
  unsigned N = static_cast<unsigned>(Vars.size());
  bump(Cells.IncrCalls);
  bump(Cells.IncrVarsum, N);
  ScopedNanoTimer Timer(Cells.ClosureNanos);
  if (!kernel::closeAfterEdge(*B.M, I, J))
    B.Feasible = false;
}

void ConstraintGraph::relaxThroughPivot(unsigned I) {
  const DbmStorage &M = *Cow.ro().M;
  // A negative cycle through I; the copy's back edge I -> copy found it.
  if (M.get(I, I) < 0) {
    mutableBlock().Feasible = false;
    return;
  }
  assert(M.get(I, I) == 0 && "closure keeps every diagonal at most zero");
  unsigned N = static_cast<unsigned>(Vars.size());
  bump(Cells.IncrCalls);
  bump(Cells.IncrVarsum, N);
  ScopedNanoTimer Timer(Cells.ClosureNanos);
  // Read first: a shared block is left alone unless some cell tightens.
  // With M[I][I] == 0, the edge repair for I -> I is the pivot step.
  if (kernel::firstRowTightenedThrough(M, I) < N)
    kernel::closeAfterEdge(*mutableBlock().M, I, I);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool ConstraintGraph::provesLE(const LinearExpr &Lhs,
                               const LinearExpr &Rhs) const {
  if (!isFeasible())
    return true;
  // Same-variable (or constant/constant) comparisons need no graph.
  if (Lhs.isConstant() && Rhs.isConstant())
    return Lhs.constant() <= Rhs.constant();
  if (Lhs.hasVar() && Rhs.hasVar() && Lhs.var() == Rhs.var())
    return Lhs.constant() <= Rhs.constant();
  auto L = encodeConst(Lhs);
  auto R = encodeConst(Rhs);
  if (!L || !R)
    return false;
  close();
  return Cow.ro().M->get(L->first, R->first) <= R->second - L->second;
}

bool ConstraintGraph::provesEQ(const LinearExpr &Lhs,
                               const LinearExpr &Rhs) const {
  return provesLE(Lhs, Rhs) && provesLE(Rhs, Lhs);
}

ConstraintGraph::ResolvedForm ConstraintGraph::resolve(
    const LinearExpr &E) const {
  ResolvedForm R;
  R.C = E.constant();
  if (E.isConstant()) {
    R.IsConst = true;
    R.Known = true;
    R.Slot = zeroSlot();
    return R;
  }
  R.Id = E.var();
  if (auto Slot = varSlot(R.Id)) {
    R.Known = true;
    R.Slot = *Slot;
  }
  return R;
}

bool ConstraintGraph::provesLE(const ResolvedForm &Lhs,
                               const ResolvedForm &Rhs) const {
  if (!isFeasible())
    return true;
  if (Lhs.IsConst && Rhs.IsConst)
    return Lhs.C <= Rhs.C;
  if (!Lhs.IsConst && !Rhs.IsConst && Lhs.Id == Rhs.Id)
    return Lhs.C <= Rhs.C;
  if (!Lhs.Known || !Rhs.Known)
    return false;
  close();
  return Cow.ro().M->get(Lhs.Slot, Rhs.Slot) <= Rhs.C - Lhs.C;
}

std::optional<std::int64_t> ConstraintGraph::bestBound(
    const std::string &A, const std::string &B) const {
  auto I = findVar(A);
  auto J = findVar(B);
  if (!I || !J || !isFeasible())
    return std::nullopt;
  close();
  std::int64_t Bound = Cow.ro().M->get(*I, *J);
  if (Bound >= DbmInfinity)
    return std::nullopt;
  return Bound;
}

std::optional<std::int64_t> ConstraintGraph::offsetBetween(
    const std::string &A, const std::string &B) const {
  auto Up = bestBound(A, B);
  auto Down = bestBound(B, A);
  if (Up && Down && *Up == -*Down)
    return *Up;
  return std::nullopt;
}

std::optional<std::int64_t> ConstraintGraph::constValue(
    const std::string &Var) const {
  return constValueAt(findVar(Var));
}

std::optional<std::int64_t> ConstraintGraph::constValue(VarId Var) const {
  return constValueAt(varSlot(Var));
}

std::optional<std::int64_t> ConstraintGraph::constValueAt(
    std::optional<unsigned> Slot) const {
  if (!Slot || !isFeasible())
    return std::nullopt;
  close();
  std::int64_t Up = Cow.ro().M->get(*Slot, zeroSlot());
  std::int64_t Down = Cow.ro().M->get(zeroSlot(), *Slot);
  if (Up < DbmInfinity && Down < DbmInfinity && Up == -Down)
    return Up;
  return std::nullopt;
}

FormList ConstraintGraph::equivalentForms(const LinearExpr &E) const {
  FormList Forms = {E};
  if (!isFeasible())
    return Forms;
  auto Base = encodeConst(E);
  if (!Base)
    return Forms;
  close();
  auto [I, C] = *Base;
  unsigned N = static_cast<unsigned>(Vars.size());
  kernel::visit(*Cow.ro().M, [&](const auto &M) {
    for (unsigned V = 0; V < N; ++V) {
      if (V == I)
        continue;
      std::int64_t Up = M.get(V, I);
      std::int64_t Down = M.get(I, V);
      if (Up >= DbmInfinity || Down >= DbmInfinity || Up != -Down)
        continue;
      // v == v_I + Up, so v_I + C == v + (C - Up); when v is the zero
      // variable the form is the constant C - Up.
      if (V == zeroSlot())
        Forms.push_back(LinearExpr(C - Up));
      else
        Forms.push_back(LinearExpr(Vars[V], C - Up));
    }
  });
  return Forms;
}

//===----------------------------------------------------------------------===//
// Lattice operations
//===----------------------------------------------------------------------===//

/// A slot as a kernel::SlotMap entry (-1 when absent).
static int slotIndex(std::optional<unsigned> Slot) {
  return Slot ? static_cast<int>(*Slot) : -1;
}

void ConstraintGraph::joinWith(const ConstraintGraph &O) {
  if (!O.isFeasible())
    return;
  if (!isFeasible()) {
    *this = O;
    return;
  }
  close();
  O.close();

  // Build the union variable list using this graph's slots, extending
  // with O's extra variables (translated through names when the tables
  // differ), and each side's slot map along the way.
  std::vector<VarId> UnionIds = Vars;
  kernel::SlotMap MapThis(Vars.size()), MapO(Vars.size(), -1);
  for (unsigned I = 0; I < Vars.size(); ++I)
    MapThis[I] = static_cast<int>(I);
  for (unsigned I = 0; I < O.Vars.size(); ++I) {
    VarId Mine = Syms == O.Syms ? O.Vars[I]
                                : Syms->intern(O.Syms->name(O.Vars[I]));
    auto It = std::find(UnionIds.begin(), UnionIds.end(), Mine);
    if (It == UnionIds.end()) {
      UnionIds.push_back(Mine);
      MapThis.push_back(-1);
      MapO.push_back(static_cast<int>(I));
    } else {
      MapO[It - UnionIds.begin()] = static_cast<int>(I);
    }
  }

  // kernel::join writes every cell, so a dense output skips the fill.
  auto NewStorage = makeDbmStorage(Backend);
  if (DenseDbmStorage *D = NewStorage->asDense())
    D->resizeForOverwrite(static_cast<unsigned>(UnionIds.size()));
  else
    NewStorage->resize(static_cast<unsigned>(UnionIds.size()));
  kernel::join(*Cow.ro().M, MapThis, *O.Cow.ro().M, MapO, *NewStorage);
  Vars = std::move(UnionIds);
  auto NewBlock = std::make_shared<DbmShared>(std::move(NewStorage));
  // Pointwise max of closed matrices is closed (and warm: later
  // tightenings should repair eagerly).
  NewBlock->Closed = true;
  NewBlock->EverClosed = true;
  NewBlock->Feasible = true;
  NewBlock->reaccount();
  Cow.adopt(std::move(NewBlock));
}

/// The cell loop of widenWith over concrete backends: keeps each finite
/// bound of \p Mine (N slots) that \p MO, seen through \p MapO, does not
/// weaken, and raises the rest.
template <typename MineT, typename TheirsT>
static void widenCells(MineT &Mine, const TheirsT &MO,
                       const kernel::SlotMap &MapO, unsigned N) {
  for (unsigned I = 0; I < N; ++I) {
    for (unsigned J = 0; J < N; ++J) {
      if (I == J)
        continue;
      std::int64_t Bound = Mine.get(I, J);
      if (Bound >= DbmInfinity)
        continue;
      std::int64_t Theirs = kernel::boundThrough(MO, MapO, I, J);
      if (Theirs <= Bound)
        continue;
      // Widen with thresholds: rather than dropping straight to infinity,
      // raise to the smallest stable small constant. This keeps loop-guard
      // relations like `i <= np - 1` (difference -1) alive across
      // widenings, which the paper's exchange-with-root invariant
      // [i+1 .. np-1] depends on. The finite threshold chain preserves
      // termination.
      static constexpr std::int64_t Thresholds[] = {-1, 0, 1};
      std::int64_t Widened = DbmInfinity;
      for (std::int64_t T : Thresholds) {
        if (Theirs <= T) {
          Widened = T;
          break;
        }
      }
      Mine.set(I, J, Widened);
    }
  }
}

void ConstraintGraph::widenWith(const ConstraintGraph &O) {
  if (!O.isFeasible())
    return; // Old value stands.
  if (!isFeasible()) {
    *this = O;
    return;
  }
  close();
  O.close();
  // Keep a bound of *this only when O does not weaken it; drop everything
  // else to infinity. Variables O lacks are unconstrained there, so their
  // bounds drop too.
  unsigned N = static_cast<unsigned>(Vars.size());
  kernel::SlotMap MapO(N);
  for (unsigned I = 0; I < N; ++I)
    MapO[I] = slotIndex(O.slotForOther(*this, Vars[I]));
  DbmShared &B = mutableBlock();
  kernel::visit(*B.M, [&](auto &Mine) {
    kernel::visit(*O.Cow.ro().M, [&](const auto &MO) {
      widenCells(Mine, MO, MapO, N);
    });
  });
  // A widened matrix is not re-closed: closing could re-tighten dropped
  // bounds and break the finite-ascent guarantee.
  B.Closed = true;
  B.PendingEdge.reset();
}

void ConstraintGraph::meetWith(const ConstraintGraph &O) {
  if (!isFeasible())
    return;
  if (!O.isFeasible()) {
    mutableBlock().Feasible = false;
    return;
  }
  O.close();
  unsigned ON = static_cast<unsigned>(O.Vars.size());
  for (unsigned I = 0; I < ON; ++I) {
    for (unsigned J = 0; J < ON; ++J) {
      if (I == J)
        continue;
      std::int64_t Bound = O.Cow.ro().M->get(I, J);
      if (Bound >= DbmInfinity)
        continue;
      auto MySlot = [&](unsigned OSlot) -> unsigned {
        if (OSlot == 0)
          return 0;
        VarId Id = Syms == O.Syms
                       ? O.Vars[OSlot]
                       : Syms->intern(O.Syms->name(O.Vars[OSlot]));
        return ensureSlot(Id);
      };
      addEdge(MySlot(I), MySlot(J), Bound);
    }
  }
}

bool ConstraintGraph::implies(const ConstraintGraph &O) const {
  if (!isFeasible())
    return true;
  if (!O.isFeasible())
    return false;
  close();
  O.close();
  kernel::SlotMap MapThis(O.Vars.size());
  for (unsigned I = 0; I < O.Vars.size(); ++I)
    MapThis[I] = slotIndex(slotForOther(O, O.Vars[I]));
  unsigned ON = static_cast<unsigned>(O.Vars.size());
  return kernel::visit(*Cow.ro().M, [&](const auto &MThis) {
    return kernel::visit(*O.Cow.ro().M, [&](const auto &MO) {
      for (unsigned I = 0; I < ON; ++I) {
        for (unsigned J = 0; J < ON; ++J) {
          if (I == J)
            continue;
          std::int64_t Theirs = MO.get(I, J);
          if (Theirs >= DbmInfinity)
            continue;
          if (kernel::boundThrough(MThis, MapThis, I, J) > Theirs)
            return false;
        }
      }
      return true;
    });
  });
}

bool ConstraintGraph::equals(const ConstraintGraph &O) const {
  return implies(O) && O.implies(*this);
}

std::string ConstraintGraph::str() const {
  if (!isFeasible())
    return "<infeasible>";
  close();
  std::ostringstream OS;
  bool First = true;
  const DbmStorage &M = *Cow.ro().M;
  unsigned N = static_cast<unsigned>(Vars.size());
  for (unsigned I = 0; I < N; ++I) {
    for (unsigned J = 0; J < N; ++J) {
      if (I == J)
        continue;
      std::int64_t Bound = M.get(I, J);
      if (Bound >= DbmInfinity)
        continue;
      if (!First)
        OS << ", ";
      First = false;
      if (I == 0)
        OS << Syms->name(Vars[J]) << " >= " << -Bound;
      else if (J == 0)
        OS << Syms->name(Vars[I]) << " <= " << Bound;
      else
        OS << Syms->name(Vars[I]) << " <= " << Syms->name(Vars[J])
           << (Bound >= 0 ? "+" : "") << Bound;
    }
  }
  return First ? "<top>" : OS.str();
}
