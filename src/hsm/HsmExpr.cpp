//===- hsm/HsmExpr.cpp -----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "hsm/HsmExpr.h"

#include "lang/ExprOps.h"
#include "support/Budget.h"
#include "support/Casting.h"
#include "support/Stats.h"

#include <functional>

using namespace csdf;

std::optional<Poly> csdf::polyOfExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Poly(cast<IntLitExpr>(E)->value());
  case Expr::Kind::VarRef:
    return Poly::var(cast<VarRefExpr>(E)->name());
  case Expr::Kind::Input:
    return std::nullopt;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Neg)
      return std::nullopt;
    auto Inner = polyOfExpr(U->operand());
    if (!Inner)
      return std::nullopt;
    return Inner->negated();
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    auto L = polyOfExpr(B->lhs());
    auto R = polyOfExpr(B->rhs());
    if (!L || !R)
      return std::nullopt;
    switch (B->op()) {
    case BinaryOp::Add:
      return L->plus(*R);
    case BinaryOp::Sub:
      return L->minus(*R);
    case BinaryOp::Mul:
      return L->times(*R);
    default:
      return std::nullopt;
    }
  }
  }
  return std::nullopt;
}

bool csdf::addAssumeFact(FactEnv &Facts, const Expr *Cond) {
  const auto *B = dyn_cast<BinaryExpr>(Cond);
  if (!B)
    return false;
  // Conjunctions contribute both sides.
  if (B->op() == BinaryOp::And) {
    bool L = addAssumeFact(Facts, B->lhs());
    bool R = addAssumeFact(Facts, B->rhs());
    return L || R;
  }
  if (B->op() != BinaryOp::Eq)
    return false;
  auto L = polyOfExpr(B->lhs());
  auto R = polyOfExpr(B->rhs());
  if (!L || !R)
    return false;
  // Prefer rewriting a bare variable into the other side.
  if (const auto *V = dyn_cast<VarRefExpr>(B->lhs()))
    if (Facts.addRewrite(V->name(), *R))
      return true;
  if (const auto *V = dyn_cast<VarRefExpr>(B->rhs()))
    if (Facts.addRewrite(V->name(), *L))
      return true;
  return false;
}

std::optional<Hsm> csdf::hsmOfExpr(const Expr *E, const Hsm &IdValue,
                                   const FactEnv &Facts) {
  Poly Len = IdValue.length();
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Hsm::constant(Poly(cast<IntLitExpr>(E)->value()), Len);
  case Expr::Kind::VarRef: {
    const auto *V = cast<VarRefExpr>(E);
    if (V->isProcessId())
      return IdValue;
    return Hsm::constant(Poly::var(V->name()), Len);
  }
  case Expr::Kind::Input:
    return std::nullopt;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Neg)
      return std::nullopt;
    auto Inner = hsmOfExpr(U->operand(), IdValue, Facts);
    if (!Inner)
      return std::nullopt;
    return hsmScale(*Inner, Poly(-1));
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    auto L = hsmOfExpr(B->lhs(), IdValue, Facts);
    auto R = hsmOfExpr(B->rhs(), IdValue, Facts);
    if (!L || !R)
      return std::nullopt;

    // A constant sequence acts as a scalar for *, / and %.
    auto AsScalar = [](const Hsm &H) -> std::optional<Poly> {
      for (const HsmLevel &Level : H.levels())
        if (!Level.Stride.isZero())
          return std::nullopt;
      return H.base();
    };

    switch (B->op()) {
    case BinaryOp::Add:
      return hsmAdd(*L, *R, Facts);
    case BinaryOp::Sub:
      return hsmAdd(*L, hsmScale(*R, Poly(-1)), Facts);
    case BinaryOp::Mul: {
      if (auto Q = AsScalar(*R))
        return hsmScale(*L, *Q);
      if (auto Q = AsScalar(*L))
        return hsmScale(*R, *Q);
      return std::nullopt;
    }
    case BinaryOp::Div: {
      auto Q = AsScalar(*R);
      if (!Q)
        return std::nullopt;
      return hsmDiv(*L, *Q, Facts);
    }
    case BinaryOp::Mod: {
      auto Q = AsScalar(*R);
      if (!Q)
        return std::nullopt;
      return hsmMod(*L, *Q, Facts);
    }
    default:
      return std::nullopt;
    }
  }
  }
  return std::nullopt;
}

std::optional<Hsm> csdf::hsmImageOnRange(const Expr *PartnerExpr,
                                         const Poly &Lo, const Poly &Count,
                                         const FactEnv &Facts) {
  Hsm Domain = Hsm::range(Lo, Count);
  return hsmOfExpr(PartnerExpr, Domain, Facts);
}

bool csdf::hsmFullSetMatch(const Expr *SendExpr, const Poly &SenderLo,
                           const Poly &SenderCount, const Expr *RecvExpr,
                           const Poly &RecvLo, const Poly &RecvCount,
                           const FactEnv &Facts) {
  Hsm Senders = Hsm::range(SenderLo, SenderCount);
  Hsm Receivers = Hsm::range(RecvLo, RecvCount);

  // (i) Surjectivity: the send image covers exactly the receiver set.
  auto Image = hsmOfExpr(SendExpr, Senders, Facts);
  if (!Image)
    return false;
  if (!hsmSetEquals(*Image, Receivers, Facts))
    return false;

  // (ii) Identity: recvExpr applied to the image gives back the senders,
  // element for element.
  auto Composed = hsmOfExpr(RecvExpr, *Image, Facts);
  if (!Composed)
    return false;
  return hsmSequenceEquals(*Composed, Senders, Facts);
}

//===----------------------------------------------------------------------===//
// HsmMatchMemo
//===----------------------------------------------------------------------===//

namespace {

/// Hash consistent with exprEquals; nullopt when \p E contains input(),
/// which exprEquals never equates.
std::optional<std::size_t> structuralHash(const Expr *E) {
  std::size_t H = static_cast<std::size_t>(E->kind());
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return hashCombine(
        H, std::hash<std::int64_t>()(cast<IntLitExpr>(E)->value()));
  case Expr::Kind::VarRef:
    return hashCombine(
        H, std::hash<std::string>()(cast<VarRefExpr>(E)->name()));
  case Expr::Kind::Input:
    return std::nullopt;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    auto Inner = structuralHash(U->operand());
    if (!Inner)
      return std::nullopt;
    return hashCombine(hashCombine(H, static_cast<std::size_t>(U->op())),
                       *Inner);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    auto L = structuralHash(B->lhs());
    auto R = structuralHash(B->rhs());
    if (!L || !R)
      return std::nullopt;
    H = hashCombine(H, static_cast<std::size_t>(B->op()));
    return hashCombine(hashCombine(H, *L), *R);
  }
  }
  return std::nullopt;
}

void bump(std::atomic<std::int64_t> *Cell) {
  if (Cell)
    Cell->fetch_add(1, std::memory_order_relaxed);
}

} // namespace

HsmMatchMemo::HsmMatchMemo(StatsRegistry *Stats) {
  if (Stats) {
    Hits = &Stats->counterCell("hsm.match.memo.hits");
    Misses = &Stats->counterCell("hsm.match.memo.misses");
  }
}

std::size_t HsmMatchMemo::size() const {
  std::lock_guard<std::mutex> L(Mu);
  std::size_t N = 0;
  for (const auto &[Key, Bucket] : Entries)
    N += Bucket.size();
  return N;
}

const HsmMatchMemo::Entry *
HsmMatchMemo::find(std::size_t Key, const Expr *SendExpr,
                   const Poly &SenderLo, const Poly &SenderCount,
                   const Expr *RecvExpr, const Poly &RecvLo,
                   const Poly &RecvCount, const FactEnv &Facts) const {
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return nullptr;
  for (const Entry &E : It->second)
    if (E.SenderLo == SenderLo && E.SenderCount == SenderCount &&
        E.RecvLo == RecvLo && E.RecvCount == RecvCount && E.Facts == Facts &&
        exprEquals(E.SendExpr, SendExpr) && exprEquals(E.RecvExpr, RecvExpr))
      return &E;
  return nullptr;
}

bool HsmMatchMemo::match(const Expr *SendExpr, Poly SenderLo,
                         Poly SenderCount, const Expr *RecvExpr, Poly RecvLo,
                         Poly RecvCount, const FactEnv &Facts) {
  std::optional<std::size_t> SendHash = structuralHash(SendExpr);
  std::optional<std::size_t> RecvHash = structuralHash(RecvExpr);
  if (!SendHash || !RecvHash) {
    // An input() read is a new question every time.
    bump(Misses);
    return hsmFullSetMatch(SendExpr, SenderLo, SenderCount, RecvExpr, RecvLo,
                           RecvCount, Facts);
  }
  std::size_t Key = hashCombine(hashCombine(Facts.hash(), *SendHash),
                                *RecvHash);
  for (const Poly *P : {&SenderLo, &SenderCount, &RecvLo, &RecvCount})
    Key = hashCombine(Key, P->hash());

  bool Hit = false, Verdict = false;
  std::uint64_t Steps = 0;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (const Entry *E = find(Key, SendExpr, SenderLo, SenderCount, RecvExpr,
                              RecvLo, RecvCount, Facts)) {
      Hit = true;
      Verdict = E->Verdict;
      Steps = E->Steps;
    }
  }
  if (Hit) {
    bump(Hits);
    // Charged outside the lock: the budget may throw.
    budgetProverSteps(Steps);
    return Verdict;
  }

  bump(Misses);
  {
    ProverStepTally Tally;
    Verdict = hsmFullSetMatch(SendExpr, SenderLo, SenderCount, RecvExpr,
                              RecvLo, RecvCount, Facts);
    Steps = Tally.steps();
  }
  std::lock_guard<std::mutex> L(Mu);
  if (!find(Key, SendExpr, SenderLo, SenderCount, RecvExpr, RecvLo,
            RecvCount, Facts))
    Entries[Key].push_back({SendExpr, RecvExpr, std::move(SenderLo),
                            std::move(SenderCount), std::move(RecvLo),
                            std::move(RecvCount), Facts, Verdict, Steps});
  return Verdict;
}
