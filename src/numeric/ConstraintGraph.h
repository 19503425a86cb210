//===- numeric/ConstraintGraph.h - Difference-constraint domain ----------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint-graph abstract domain of Section VII-A: a conjunction of
/// inequalities `v_i <= v_j + c` over named variables, exactly the
/// representation suggested by CLR ch. 25.5 and Shaham et al. that the
/// paper's prototype uses. A distinguished zero variable turns unary bounds
/// (`v <= c`, `v >= c`) into difference constraints.
///
/// Consistency is maintained by transitive closure: the O(n^3)
/// Floyd-Warshall `close()` and the O(n^2) single-edge repair
/// `closeAfterEdge()` — the two closure variants whose call counts and
/// average variable counts Section IX profiles (217 full / 78 incremental
/// calls, avg 52.3 / 66.3 vars). Both bump StatsRegistry counters so the
/// benchmark harness can reproduce that profile.
///
/// The representation implements the paper's Section IX optimization
/// directions end to end:
///
///   1. variables are interned to dense VarIds in a SymbolTable shared per
///      analysis run (strings only at the API boundary);
///   2. the bound matrix is held through a copy-on-write handle (CowDbm),
///      so the pCFG engine's pervasive state copies are O(1) until a copy
///      actually mutates — and closure done through one copy is visible
///      to all of them, because Closed/Feasible live in the shared block;
///   3. dense array storage (DenseDbmStorage) remains the default backend;
///   4. full-closure results are memoized in a per-analysis ClosureMemo
///      keyed by a matrix fingerprint, so `equals`/`implies` checks at
///      already-visited pCFG configurations skip the O(n^3) re-close.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_CONSTRAINTGRAPH_H
#define CSDF_NUMERIC_CONSTRAINTGRAPH_H

#include "numeric/DbmStorage.h"
#include "numeric/LinearExpr.h"
#include "numeric/SymbolTable.h"
#include "support/Stats.h"

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace csdf {

/// Memoizes full-closure results across the constraint graphs of one
/// analysis run. Keyed by a fingerprint of the pre-closure matrix and
/// verified against a full snapshot, so a hit is always exact. The stored
/// result is the closed DbmShared block itself: adopting it on a hit costs
/// one pointer assignment, and copy-on-write protects it from mutation.
///
/// Thread-safe: lookup/insert serialize on a mutex, so in cross-session
/// mode one memo can be shared by every session of a `csdf batch`
/// threads run, each on its own pool worker. Memoized blocks are always
/// Closed, which under the engine's closed-shared-block invariant (every
/// state the engine stores or shares is closed first) makes them
/// immutable: any handle that wants to mutate one detaches a private
/// clone first.
class ClosureMemo {
public:
  ClosureMemo() = default;

  /// \p CrossSession = true builds a memo that outlives any single
  /// analysis session (batch threads mode). Such a memo must not keep
  /// blocks charged to a session's stack-local AnalysisBudget — the budget
  /// dies with the session while the block lives on — so insert()
  /// releases the block's accounted bytes and unbinds its Accountant.
  explicit ClosureMemo(bool CrossSession) : CrossSession(CrossSession) {}

  /// Returns the memoized closed block for a matrix equal to \p Pre, or
  /// nullptr.
  std::shared_ptr<DbmShared> lookup(std::uint64_t Key, DbmBackend Backend,
                                    const std::vector<std::int64_t> &Pre)
      const;

  /// Records \p Closed as the closure of the matrix snapshotted in \p Pre.
  void insert(std::uint64_t Key, DbmBackend Backend,
              std::vector<std::int64_t> Pre,
              std::shared_ptr<DbmShared> Closed);

  std::size_t size() const;

  /// Visits every entry under the memo lock, in unspecified order. The
  /// snapshot serializer (numeric/MemoSnapshot.h) walks the memo through
  /// here; \p Fn must not call back into the memo. Visited blocks are
  /// Closed, hence immutable under the engine's closed-shared-block
  /// invariant, so reading them without copying is safe.
  void forEach(const std::function<void(std::uint64_t Key, DbmBackend Backend,
                                        const std::vector<std::int64_t> &Pre,
                                        const DbmShared &Closed)> &Fn) const;

private:
  struct Entry {
    DbmBackend Backend;
    std::vector<std::int64_t> Pre;
    std::shared_ptr<DbmShared> Closed;
  };
  mutable std::mutex M;
  bool CrossSession = false;
  std::unordered_multimap<std::uint64_t, Entry> Entries;
  /// Safety valve: the memo is cleared when it reaches this many entries
  /// (pCFG analyses revisit a bounded set of configurations, so this only
  /// triggers on degenerate workloads).
  static constexpr std::size_t MaxEntries = 4096;
};

using ClosureMemoPtr = std::shared_ptr<ClosureMemo>;

/// A conjunction of difference constraints over named variables.
///
/// The graph is *infeasible* (bottom) when the constraints are
/// contradictory; most queries on an infeasible graph are vacuously true.
class ConstraintGraph {
public:
  explicit ConstraintGraph(DbmBackend Backend = DbmBackend::Dense,
                           StatsRegistry *Stats = &StatsRegistry::global(),
                           SymbolTablePtr Syms = nullptr,
                           ClosureMemoPtr Memo = nullptr);
  /// A dense-backed graph: the storage every analysis runs on.
  ConstraintGraph(StatsRegistry *Stats, SymbolTablePtr Syms,
                  ClosureMemoPtr Memo)
      : ConstraintGraph(DbmBackend::Dense, Stats, std::move(Syms),
                        std::move(Memo)) {}

  ConstraintGraph(const ConstraintGraph &O);
  ConstraintGraph &operator=(const ConstraintGraph &O);
  ConstraintGraph(ConstraintGraph &&) = default;
  ConstraintGraph &operator=(ConstraintGraph &&) = default;

  //===--------------------------------------------------------------------===
  // Variables
  //===--------------------------------------------------------------------===

  /// Returns the matrix slot of \p Name, creating the variable
  /// unconstrained if needed.
  unsigned ensureVar(const std::string &Name);

  /// Returns the matrix slot of \p Name if it exists.
  std::optional<unsigned> findVar(const std::string &Name) const;

  /// The form `Name + C`, interning \p Name into this graph's table.
  LinearExpr form(const std::string &Name, std::int64_t C = 0) const {
    return LinearExpr(Syms->intern(Name), C);
  }

  bool hasVar(const std::string &Name) const {
    return findVar(Name).has_value();
  }

  /// Number of variables, excluding the internal zero variable.
  unsigned numVars() const {
    return static_cast<unsigned>(Vars.size()) - 1;
  }

  /// All variable names (excluding the zero variable).
  std::vector<std::string> varNames() const;

  /// All variable ids (excluding the zero variable).
  std::vector<VarId> varIds() const {
    return std::vector<VarId>(Vars.begin() + 1, Vars.end());
  }

  /// The shared intern table this graph's VarIds index into.
  const SymbolTable &symbols() const { return *Syms; }
  const SymbolTablePtr &symbolsPtr() const { return Syms; }

  /// Projects every variable in \p Names out of the graph: closes once,
  /// then removes them all in one compaction, so constraints implied
  /// through them survive. Names that are absent (or repeated) are
  /// ignored; when none is present the graph is left untouched — neither
  /// closed nor detached.
  void removeVars(const std::vector<std::string> &Names);

  /// Projects \p Name out of the graph (see removeVars).
  void removeVar(const std::string &Name) { removeVars({Name}); }

  /// Renames every variable via \p Rename (must stay injective).
  void renameVars(const std::vector<std::pair<std::string, std::string>>
                      &Renames);

  //===--------------------------------------------------------------------===
  // Namespaces (`<ns>.<base>` variables; see numeric/SymbolTable.h)
  //===--------------------------------------------------------------------===
  //
  // Id-level: membership is a prefix compare on the interned name, and
  // renamed variables come from SymbolTable::renamed, so these build no
  // name strings for variables already seen under the target namespace.

  /// Moves every variable of each From namespace of \p Map into its To
  /// namespace, all at once. Slots stay in place.
  void renameNamespaces(const NamespaceMap &Map);

  void renameNamespace(const std::string &From, const std::string &To) {
    renameNamespaces(NamespaceMap(From, To));
  }

  /// Projects out (see removeVars) every namespaced variable for which
  /// \p Dead(Ns, Base) holds. Bare variables are never removed.
  template <typename Pred> void removeVarsIf(Pred Dead) {
    std::vector<unsigned> Victims;
    for (unsigned I = 1; I < Vars.size(); ++I) {
      std::string_view Name = Syms->name(Vars[I]);
      std::string_view Ns = namespaceOf(Name);
      if (!Ns.empty() && Dead(Ns, Name.substr(Ns.size() + 1)))
        Victims.push_back(I);
    }
    removeSlots(std::move(Victims));
  }

  /// Projects out every variable of namespace \p Ns.
  void removeNamespace(std::string_view Ns) {
    removeVarsIf([Ns](std::string_view VarNs, std::string_view) {
      return VarNs == Ns;
    });
  }

  /// Adds `<To>.<b> == <From>.<b>` for every variable `<From>.<b>`, in
  /// slot order, skipping anchor bases (`lo$`, ...) when \p SkipAnchors.
  /// Adds exactly the edges, in the order, that
  /// `addEQ(form("<To>.<b>"), form("<From>.<b>"))` per variable would:
  /// warm matrices repair each edge as it comes.
  void copyNamespace(std::string_view From, const std::string &To,
                     bool SkipAnchors);

  /// `copyNamespace(From, To, /*SkipAnchors=*/true)` followed by
  /// `removeNamespace(From)`, up to slot order, without the copy: each
  /// non-anchor `<From>.<b>` is renamed to `<To>.<b>` in its slot, and
  /// From's anchors are projected out. The copy's closure repairs are
  /// kept as single-pivot relaxations through each moved variable, in
  /// slot order, because a widened matrix is marked closed without being
  /// closed and those repairs can tighten it; a negative pivot diagonal
  /// makes the graph infeasible, exactly where the copy's back edge
  /// would. A shared block is detached only when a relaxation tightens a
  /// cell. \p To must hold no variable under a moved base.
  void moveNamespace(std::string_view From, const std::string &To);

  //===--------------------------------------------------------------------===
  // Constraints and transfer
  //===--------------------------------------------------------------------===

  /// Adds `A <= B + C` for variables by name.
  void addLE(const std::string &A, const std::string &B, std::int64_t C);

  /// Adds `Lhs <= Rhs` for `var + c` forms (constants use the zero var).
  void addLE(const LinearExpr &Lhs, const LinearExpr &Rhs);

  /// Adds `Lhs == Rhs` (both directions).
  void addEQ(const LinearExpr &Lhs, const LinearExpr &Rhs);

  /// Adds `Var <= C` / `Var >= C`.
  void addUpperBound(const std::string &Var, std::int64_t C);
  void addLowerBound(const std::string &Var, std::int64_t C);

  /// Transfer for `X := E` where E is `var + c` or `c`. Handles X := X + c
  /// exactly (bound shifting); otherwise havocs X and equates.
  void assign(VarId X, const LinearExpr &E);
  void assign(const std::string &X, const LinearExpr &E) {
    assign(Syms->intern(X), E);
  }

  /// Forgets everything known about \p X.
  void havoc(const std::string &X);

  //===--------------------------------------------------------------------===
  // Queries (all imply closure)
  //===--------------------------------------------------------------------===

  /// False when the constraints are contradictory.
  bool isFeasible() const;

  /// True if `Lhs <= Rhs` is implied. Vacuously true when infeasible.
  bool provesLE(const LinearExpr &Lhs, const LinearExpr &Rhs) const;

  /// True if `Lhs == Rhs` is implied.
  bool provesEQ(const LinearExpr &Lhs, const LinearExpr &Rhs) const;

  /// A `var + c` form resolved against this graph once, so repeated
  /// queries skip the slot search. Valid only while the graph's variable
  /// set is unchanged (queries are fine; mutations invalidate it).
  struct ResolvedForm {
    /// Matrix slot (zero slot for constants); meaningful when Known.
    unsigned Slot = 0;
    /// The form's variable (InvalidVarId for constants), set even when
    /// the graph has no such variable: the same-variable fast path.
    VarId Id = InvalidVarId;
    std::int64_t C = 0;
    bool IsConst = false;
    /// True when the variable (or constant) has a matrix slot.
    bool Known = false;
  };

  /// Resolves \p E for repeated queries: a slot lookup, no interning.
  ResolvedForm resolve(const LinearExpr &E) const;

  /// `provesLE` over pre-resolved forms; identical semantics to the
  /// LinearExpr overload.
  bool provesLE(const ResolvedForm &Lhs, const ResolvedForm &Rhs) const;

  /// Best provable C with `A <= B + C`, or nullopt if unconstrained /
  /// unknown vars. A and B may be variable names.
  std::optional<std::int64_t> bestBound(const std::string &A,
                                        const std::string &B) const;

  /// If `A == B + c` is implied for some unique c, returns c.
  std::optional<std::int64_t> offsetBetween(const std::string &A,
                                            const std::string &B) const;

  /// If \p Var is pinned to a single value, returns it.
  std::optional<std::int64_t> constValue(const std::string &Var) const;
  std::optional<std::int64_t> constValue(VarId Var) const;

  /// All `var + c` forms provably equal to \p E (E itself first, then in
  /// slot order), restricted to existing variables. Used to find
  /// alternative representations of process-set bounds during widening.
  FormList equivalentForms(const LinearExpr &E) const;

  //===--------------------------------------------------------------------===
  // Lattice operations
  //===--------------------------------------------------------------------===

  /// In-place join (least upper bound: union of behaviours). Variables
  /// missing on either side end up unconstrained.
  void joinWith(const ConstraintGraph &O);

  /// In-place widening: keeps only constraints of *this that are stable in
  /// \p O; everything else is dropped to infinity.
  void widenWith(const ConstraintGraph &O);

  /// In-place meet (conjunction).
  void meetWith(const ConstraintGraph &O);

  /// True if *this implies every constraint of \p O (i.e. *this is more
  /// precise or equal). Infeasible implies everything.
  bool implies(const ConstraintGraph &O) const;

  /// Structural equality of the closed forms over the union of variables.
  bool equals(const ConstraintGraph &O) const;

  //===--------------------------------------------------------------------===
  // Maintenance
  //===--------------------------------------------------------------------===

  /// Forces full closure now (otherwise lazy on first query).
  void close() const;

  /// Releases this graph's DBM block from budget accounting: refunds the
  /// accounted bytes and unbinds the Accountant, exactly what
  /// ClosureMemo::insert does for cross-session blocks. Required before
  /// state containing this graph escapes the session that owns the
  /// (stack-local) AnalysisBudget — e.g. a captured replay trace.
  /// Idempotent; safe on blocks shared with live states (accounting is
  /// enforcement bookkeeping, never semantics).
  void detachAccounting() const;

  DbmBackend backend() const { return Backend; }

  /// True when this graph still shares its matrix with another copy (or a
  /// memo entry) — i.e. no mutation has detached it yet.
  bool sharesStorage() const { return !Cow.unique(); }

  /// Human-readable dump of all finite constraints.
  std::string str() const;

private:
  unsigned zeroSlot() const { return 0; }

  /// Projects out the variables at \p Victims (any order, repeats
  /// allowed): closes once, then compacts. A no-op when empty.
  void removeSlots(std::vector<unsigned> Victims);

  /// The matrix slot of \p Id in this graph, if present.
  std::optional<unsigned> slotOf(VarId Id) const;

  /// slotOf for a program variable: never the zero slot.
  std::optional<unsigned> varSlot(VarId Id) const;

  /// The matrix slot of \p Id, appending an unconstrained variable if
  /// needed.
  unsigned ensureSlot(VarId Id);

  /// Resolves the slot of \p O's variable \p Id in *this* graph, mapping
  /// through names when the two graphs use different symbol tables.
  std::optional<unsigned> slotForOther(const ConstraintGraph &O,
                                       VarId Id) const;

  /// Slot + offset encoding of a LinearExpr (constants -> zero slot).
  std::pair<unsigned, std::int64_t> encode(const LinearExpr &E);
  std::optional<std::pair<unsigned, std::int64_t>>
  encodeConst(const LinearExpr &E) const;

  /// The pinned value of the variable at \p Slot, if any.
  std::optional<std::int64_t> constValueAt(std::optional<unsigned> Slot)
      const;

  void addEdge(unsigned I, unsigned J, std::int64_t C);

  /// Drops every edge of the variable at \p Slot.
  void havocSlot(unsigned Slot);

  /// Clones the shared block if needed before a mutation; bumps the
  /// cg.cow.detach counter when a real clone happened.
  DbmShared &mutableBlock();

  /// Floyd-Warshall closure; sets Feasible. O(n^3). Bumps the stats
  /// cells, then delegates to kernel::fullClose (numeric/ClosureKernel.h:
  /// the flat blocked/sparse kernel on dense storage, the reference loop
  /// otherwise).
  void fullClose(DbmShared &B) const;

  /// Repairs closure after tightening edge (I, J); requires the matrix was
  /// closed before. O(n^2). Delegates to kernel::closeAfterEdge.
  void closeAfterEdge(DbmShared &B, unsigned I, unsigned J) const;

  /// Relaxes the closed matrix through pivot \p I (kernel::closeAfterEdge
  /// with I == J), or marks the graph infeasible when the pivot's
  /// diagonal is negative.
  /// Counts as one incremental closure; detaches only on a change.
  void relaxThroughPivot(unsigned I);

  /// Cached StatsRegistry counter cells, resolved once per fresh graph so
  /// the hot paths (state copies, closures) bump an atomic directly
  /// instead of doing a string lookup under the registry mutex. Null cells
  /// (no registry) make bumps no-ops.
  struct CounterCells {
    std::atomic<std::int64_t> *CowCopies = nullptr;
    std::atomic<std::int64_t> *CowDetaches = nullptr;
    std::atomic<std::int64_t> *FullCalls = nullptr;
    std::atomic<std::int64_t> *FullVarsum = nullptr;
    std::atomic<std::int64_t> *IncrCalls = nullptr;
    std::atomic<std::int64_t> *IncrVarsum = nullptr;
    std::atomic<std::int64_t> *MemoHits = nullptr;
    std::atomic<std::int64_t> *MemoMisses = nullptr;
    /// Nanosecond cell for the cg.closure.seconds timer.
    std::atomic<std::int64_t> *ClosureNanos = nullptr;
  };

  static void bump(std::atomic<std::int64_t> *Cell, std::int64_t Delta = 1) {
    if (Cell)
      Cell->fetch_add(Delta, std::memory_order_relaxed);
  }

  DbmBackend Backend;
  StatsRegistry *Stats;
  CounterCells Cells;
  SymbolTablePtr Syms;
  ClosureMemoPtr Memo;
  /// Matrix slot -> interned id; Vars[0] is the zero variable.
  std::vector<VarId> Vars;
  mutable CowDbm Cow;
};

} // namespace csdf

#endif // CSDF_NUMERIC_CONSTRAINTGRAPH_H
