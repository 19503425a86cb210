//===- procset/ProcSet.h - Symbolic process-set ranges -----------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-set representation of Section VII-B: a set of processes is a
/// range `[lb..ub]` whose bounds are *sets of expressions* the bound is
/// known to equal (e.g. the upper bound {1, i} when the state analysis has
/// proven i == 1). Range operations — emptiness, adjacency, difference,
/// merging, widening — are answered by querying a ConstraintGraph for
/// relations between bound forms.
///
/// Bounds reference variables in whatever namespace the client analysis
/// uses (e.g. `p0.i`); this module is agnostic to the naming scheme. Forms
/// carry interned ids, so every bound of one analysis run must come from
/// that run's SymbolTable.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PROCSET_PROCSET_H
#define CSDF_PROCSET_PROCSET_H

#include "numeric/ConstraintGraph.h"
#include "numeric/LinearExpr.h"

#include <optional>
#include <string>

namespace csdf {

/// A symbolic bound: one or more `var + c` forms, all provably equal.
/// The form list is kept in FormOrder (name order) and duplicate-free, so
/// operations that add or rename forms take the run's SymbolTable.
class SymBound {
public:
  SymBound() = default;
  explicit SymBound(const LinearExpr &Form) : Forms{Form} {}

  /// The representative form (first in FormOrder).
  const LinearExpr &primary() const { return Forms.front(); }
  const FormList &forms() const { return Forms; }

  /// Adds another known-equal form.
  void addForm(const LinearExpr &Form, const SymbolTable &Syms);

  /// Extends the form set with every alias \p G can prove for any current
  /// form.
  void enrich(const ConstraintGraph &G);

  /// Returns this bound shifted by \p Delta (all forms shifted; a uniform
  /// shift keeps FormOrder).
  SymBound plus(std::int64_t Delta) const;

  /// Keeps only forms present in both bounds; nullopt if none survive.
  /// Both bounds must come from one SymbolTable.
  std::optional<SymBound> intersectForms(const SymBound &O) const;

  /// Maps the variable of every form through \p Rename (`VarId -> VarId`)
  /// and restores FormOrder.
  template <typename Fn>
  SymBound withRenamedVars(Fn &&Rename, const SymbolTable &Syms) const {
    SymBound R;
    for (const LinearExpr &F : Forms)
      R.addForm(F.withRenamedVar(Rename), Syms);
    return R;
  }

  /// True if `*this <= O + Slack` is provable via any form pair.
  bool provablyLE(const SymBound &O, const ConstraintGraph &G,
                  std::int64_t Slack = 0) const;

  /// True if `*this == O + Offset` is provable via any form pair.
  bool provablyEQ(const SymBound &O, const ConstraintGraph &G,
                  std::int64_t Offset = 0) const;

  std::string str(const SymbolTable &Syms) const;

  bool operator==(const SymBound &O) const { return Forms == O.Forms; }

private:
  FormList Forms;
};

/// A (possibly symbolic) contiguous range of process ranks `[Lb..Ub]`.
class ProcRange {
public:
  ProcRange() = default;
  ProcRange(SymBound Lb, SymBound Ub) : Lb(std::move(Lb)), Ub(std::move(Ub)) {}
  ProcRange(const LinearExpr &Lb, const LinearExpr &Ub)
      : Lb(SymBound(Lb)), Ub(SymBound(Ub)) {}

  /// The full set [0 .. np-1].
  static ProcRange all(SymbolTable &Syms) {
    return ProcRange(LinearExpr(0), LinearExpr(Syms.intern("np"), -1));
  }

  /// The singleton [E .. E].
  static ProcRange singleton(const LinearExpr &E) {
    return ProcRange(E, E);
  }

  const SymBound &lb() const { return Lb; }
  const SymBound &ub() const { return Ub; }
  SymBound &lb() { return Lb; }
  SymBound &ub() { return Ub; }

  /// True when `ub < lb` is provable — the range denotes no processes.
  bool provablyEmpty(const ConstraintGraph &G) const;

  /// True when `lb <= ub` is provable.
  bool provablyNonEmpty(const ConstraintGraph &G) const;

  /// True when `lb == ub` is provable.
  bool provablySingleton(const ConstraintGraph &G) const;

  /// The range shifted by \p Delta: [lb+d .. ub+d].
  ProcRange shifted(std::int64_t Delta) const {
    return ProcRange(Lb.plus(Delta), Ub.plus(Delta));
  }

  /// Adds aliases from \p G to both bounds.
  void enrich(const ConstraintGraph &G) {
    Lb.enrich(G);
    Ub.enrich(G);
  }

  template <typename Fn>
  ProcRange withRenamedVars(Fn &&Rename, const SymbolTable &Syms) const {
    return ProcRange(Lb.withRenamedVars(Rename, Syms),
                     Ub.withRenamedVars(Rename, Syms));
  }

  std::string str(const SymbolTable &Syms) const {
    return "[" + Lb.str(Syms) + ".." + Ub.str(Syms) + "]";
  }

  bool operator==(const ProcRange &O) const {
    return Lb == O.Lb && Ub == O.Ub;
  }

private:
  SymBound Lb;
  SymBound Ub;
};

//===----------------------------------------------------------------------===//
// Relational operations (all answered through a ConstraintGraph)
//===----------------------------------------------------------------------===//

/// True when A and B denote the same set (`A.lb == B.lb && A.ub == B.ub`).
bool provablyEqual(const ProcRange &A, const ProcRange &B,
                   const ConstraintGraph &G);

/// True when B starts exactly one past A (`B.lb == A.ub + 1`).
bool provablyAdjacent(const ProcRange &A, const ProcRange &B,
                      const ConstraintGraph &G);

/// True when M is provably contained in R.
bool provablyContains(const ProcRange &R, const ProcRange &M,
                      const ConstraintGraph &G);

/// True when A and B provably share no element (A.ub < B.lb or B.ub < A.lb).
bool provablyDisjoint(const ProcRange &A, const ProcRange &B,
                      const ConstraintGraph &G);

/// Merges adjacent or equal ranges: A ++ B when `B.lb == A.ub + 1` (or
/// symmetric, or one contains the other). Returns nullopt when no merge is
/// provable.
std::optional<ProcRange> tryMerge(const ProcRange &A, const ProcRange &B,
                                  const ConstraintGraph &G);

/// The two leftovers of removing subrange M from R (Section VII-B's
/// bound-aware difference): `[R.lb .. M.lb-1]` and `[M.ub+1 .. R.ub]`.
/// Provably empty leftovers are omitted; leftovers that can't be proven
/// empty or non-empty make the difference fail (nullopt) because the
/// analysis requires exact set splitting.
struct RangeDifference {
  std::optional<ProcRange> Before;
  std::optional<ProcRange> After;
};
std::optional<RangeDifference> tryDifference(const ProcRange &R,
                                             const ProcRange &M,
                                             const ConstraintGraph &G);

/// Intersection when the bounds are pairwise comparable; nullopt otherwise.
std::optional<ProcRange> tryIntersect(const ProcRange &A, const ProcRange &B,
                                      const ConstraintGraph &G);

/// The paper's widening for process sets: each bound keeps only the forms
/// common to the old (\p OldR under \p OldG) and new (\p NewR under \p NewG)
/// representations — "the common portions are retained". Returns nullopt
/// when a bound has no stable form.
std::optional<ProcRange> widenRange(const ProcRange &OldR,
                                    const ConstraintGraph &OldG,
                                    const ProcRange &NewR,
                                    const ConstraintGraph &NewG);

} // namespace csdf

#endif // CSDF_PROCSET_PROCSET_H
