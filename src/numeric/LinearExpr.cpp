//===- numeric/LinearExpr.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/LinearExpr.h"

#include "lang/ExprOps.h"
#include "support/Casting.h"

using namespace csdf;

std::optional<LinearExpr> LinearExpr::fromExpr(const Expr *E,
                                               SymbolTable &Syms) {
  if (auto C = foldConstant(E))
    return LinearExpr(*C);
  if (const auto *V = dyn_cast<VarRefExpr>(E))
    return LinearExpr(Syms.intern(V->name()), 0);
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    if (B->op() == BinaryOp::Add) {
      auto L = fromExpr(B->lhs(), Syms);
      auto R = fromExpr(B->rhs(), Syms);
      if (!L || !R)
        return std::nullopt;
      if (L->isConstant() && R->hasVar())
        return LinearExpr(R->var(), R->constant() + L->constant());
      if (R->isConstant() && L->hasVar())
        return LinearExpr(L->var(), L->constant() + R->constant());
      return std::nullopt; // var + var is not linear-with-unit-coefficient.
    }
    if (B->op() == BinaryOp::Sub) {
      auto L = fromExpr(B->lhs(), Syms);
      auto R = fromExpr(B->rhs(), Syms);
      if (!L || !R || !R->isConstant())
        return std::nullopt;
      return L->plus(-R->constant());
    }
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    if (U->op() == UnaryOp::Neg) {
      auto Inner = fromExpr(U->operand(), Syms);
      if (Inner && Inner->isConstant())
        return LinearExpr(-Inner->constant());
    }
  }
  return std::nullopt;
}

std::string LinearExpr::str(const SymbolTable &Syms) const {
  if (isConstant())
    return std::to_string(Const);
  const std::string &Name = Syms.name(Var);
  if (Const == 0)
    return Name;
  if (Const > 0)
    return Name + "+" + std::to_string(Const);
  return Name + std::to_string(Const);
}
