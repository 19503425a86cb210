//===- numeric/LinearExpr.h - `var + c` expressions --------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The restricted expression form used throughout client analysis #1
/// (Section VII): an optional variable plus a constant, `var + c` or `c`.
/// Message expressions, process-set bounds and assignments are recognized
/// into this form; anything else is handled conservatively or escalated to
/// the HSM client.
///
/// The variable is a VarId of the run's SymbolTable, so copying, comparing
/// and resolving a form against a constraint graph never touch a string.
/// Names come back only where text is produced (str()) and where an order
/// must not depend on interning order (FormOrder).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_LINEAREXPR_H
#define CSDF_NUMERIC_LINEAREXPR_H

#include "lang/Ast.h"
#include "numeric/SymbolTable.h"
#include "support/InlineVector.h"

#include <cstdint>
#include <optional>
#include <string>

namespace csdf {

/// `Var + Const` when Var is set, otherwise the constant `Const`.
class LinearExpr {
public:
  LinearExpr() = default;
  explicit LinearExpr(std::int64_t Const) : Const(Const) {}
  LinearExpr(VarId Var, std::int64_t Const) : Var(Var), Const(Const) {}

  /// Recognizes \p E as `var + c` / `var - c` / `c + var` / `var` / `c`
  /// (with nested parentheses and constant folding of pure-constant
  /// subtrees), interning the variable into \p Syms. Returns nullopt for
  /// anything else.
  static std::optional<LinearExpr> fromExpr(const Expr *E, SymbolTable &Syms);

  bool isConstant() const { return Var == InvalidVarId; }
  bool hasVar() const { return Var != InvalidVarId; }
  VarId var() const { return Var; }
  std::int64_t constant() const { return Const; }

  /// True for a constant or a bare (un-namespaced) variable such as `np`:
  /// forms whose value no set-local assignment can change.
  bool isGlobal(const SymbolTable &Syms) const {
    return isConstant() || Syms.name(Var).find('.') == std::string::npos;
  }

  /// Returns this + \p Delta.
  LinearExpr plus(std::int64_t Delta) const {
    LinearExpr R = *this;
    R.Const += Delta;
    return R;
  }

  /// Returns a copy with the variable mapped through \p Rename (a
  /// `VarId -> VarId` function; no-op for constants).
  template <typename Fn> LinearExpr withRenamedVar(Fn &&Rename) const {
    if (isConstant())
      return *this;
    return LinearExpr(Rename(Var), Const);
  }

  /// Same variable and constant.
  bool operator==(const LinearExpr &O) const {
    return Var == O.Var && Const == O.Const;
  }
  bool operator!=(const LinearExpr &O) const { return !(*this == O); }

  std::string str(const SymbolTable &Syms) const;

private:
  VarId Var = InvalidVarId;
  std::int64_t Const = 0;
};

/// The order bound forms are kept in: constants first, then by variable
/// *name*, then by constant. Ids would be cheaper to compare, but a fresh
/// table (CLI, batch) and a warm shared one (serve) hand them out in
/// different orders, and the first form of a bound is what anchors sets,
/// orders them in canonicalization and gets printed.
struct FormOrder {
  const SymbolTable &Syms;

  bool operator()(const LinearExpr &A, const LinearExpr &B) const {
    if (A.var() != B.var()) {
      if (A.isConstant() || B.isConstant())
        return A.isConstant();
      return Syms.name(A.var()) < Syms.name(B.var());
    }
    return A.constant() < B.constant();
  }
};

/// The forms of one bound. Eight stay inline: most bounds hold one form,
/// and eight cover about 80% of enriched bounds and 90% of the bounds that
/// reach provablyLE/provablyEQ.
using FormList = InlineVector<LinearExpr, 8>;

} // namespace csdf

#endif // CSDF_NUMERIC_LINEAREXPR_H
