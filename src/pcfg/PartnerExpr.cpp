//===- pcfg/PartnerExpr.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pcfg/PartnerExpr.h"

#include "lang/ExprOps.h"
#include "support/Casting.h"

using namespace csdf;

std::optional<std::int64_t> csdf::matchIdPlusC(const Expr *E) {
  if (const auto *V = dyn_cast<VarRefExpr>(E))
    return V->isProcessId() ? std::optional<std::int64_t>(0) : std::nullopt;
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B)
    return std::nullopt;
  if (B->op() == BinaryOp::Add) {
    if (const auto *V = dyn_cast<VarRefExpr>(B->lhs()); V && V->isProcessId())
      if (auto C = foldConstant(B->rhs()))
        return *C;
    if (const auto *V = dyn_cast<VarRefExpr>(B->rhs()); V && V->isProcessId())
      if (auto C = foldConstant(B->lhs()))
        return *C;
    return std::nullopt;
  }
  if (B->op() == BinaryOp::Sub) {
    if (const auto *V = dyn_cast<VarRefExpr>(B->lhs()); V && V->isProcessId())
      if (auto C = foldConstant(B->rhs()))
        return -*C;
  }
  return std::nullopt;
}

namespace {

/// Evaluates \p E to a constant using the graph's pinned variable values
/// (grid parameters fixed via AnalysisOptions::Params, loop counters at
/// known iterations). Fails on `id`, input(), or any unpinned variable.
std::optional<std::int64_t> resolveConstant(const Expr *E,
                                            const ProcSetEntry &Set,
                                            const std::set<std::string>
                                                &AssignedVars,
                                            const ConstraintGraph &Cg) {
  if (dependsOnId(E))
    return std::nullopt;
  return evalExpr(E, [&](const std::string &Name)
                         -> std::optional<std::int64_t> {
    std::string Scoped = PcfgState::scopedVar(Set, Name, AssignedVars);
    if (Set.NonUniform.count(Name) && !Set.Range.provablySingleton(Cg))
      return std::nullopt;
    return Cg.constValue(Scoped);
  });
}

} // namespace

PartnerExpr csdf::classifyPartnerExpr(const Expr *E, const ProcSetEntry &Set,
                                      const std::set<std::string>
                                          &AssignedVars,
                                      const ConstraintGraph &Cg) {
  PartnerExpr Result;
  if (auto Offset = matchIdPlusC(E)) {
    Result.TheKind = PartnerExpr::Kind::IdPlusC;
    Result.Offset = *Offset;
    return Result;
  }
  if (dependsOnId(E)) {
    // A symbolic-offset shift like `id + ncols` becomes a plain IdPlusC
    // when the offset expression is pinned to a constant (e.g. via
    // AnalysisOptions::Params).
    if (const auto *B = dyn_cast<BinaryExpr>(E)) {
      const Expr *IdSide = nullptr;
      const Expr *OffSide = nullptr;
      std::int64_t Sign = 1;
      if (const auto *V = dyn_cast<VarRefExpr>(B->lhs());
          V && V->isProcessId() && !dependsOnId(B->rhs())) {
        IdSide = B->lhs();
        OffSide = B->rhs();
        if (B->op() == BinaryOp::Sub)
          Sign = -1;
        else if (B->op() != BinaryOp::Add)
          IdSide = nullptr;
      } else if (const auto *V2 = dyn_cast<VarRefExpr>(B->rhs());
                 V2 && V2->isProcessId() && B->op() == BinaryOp::Add &&
                 !dependsOnId(B->lhs())) {
        IdSide = B->rhs();
        OffSide = B->lhs();
      }
      if (IdSide) {
        if (auto Off = resolveConstant(OffSide, Set, AssignedVars, Cg)) {
          Result.TheKind = PartnerExpr::Kind::IdPlusC;
          Result.Offset = Sign * *Off;
          return Result;
        }
      }
    }
    // Other uses of id are the HSM matcher's job; report Complex here.
    return Result;
  }
  SymbolTable &Syms = *Cg.symbolsPtr();
  auto Lin = LinearExpr::fromExpr(E, Syms);
  if (!Lin) {
    // Outside the `var + c` fragment, but possibly still pinned to a
    // constant (e.g. `np - ncols` with both parameters fixed).
    if (auto C = resolveConstant(E, Set, AssignedVars, Cg)) {
      Result.TheKind = PartnerExpr::Kind::Uniform;
      Result.Value = LinearExpr(*C);
    }
    return Result;
  }
  if (Lin->hasVar()) {
    // Non-uniform variables are only safe on singleton sets.
    const std::string &Var = Syms.name(Lin->var());
    if (Set.NonUniform.count(Var) && !Set.Range.provablySingleton(Cg))
      return Result;
    // Globals stay bare, so only set-local variables need a second intern.
    if (AssignedVars.count(Var))
      Lin = Cg.form(PcfgState::scopedVar(Set, Var, AssignedVars),
                    Lin->constant());
  }
  Result.Value = *Lin;
  Result.TheKind = PartnerExpr::Kind::Uniform;
  return Result;
}
