//===- pcfg/PcfgState.h - Dataflow state over pCFG nodes ----------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow state of Section VI: `state[n_pCFG] = (dfState, pSets,
/// matches)`. Here a PcfgState bundles
///
///   * the process sets (symbolic ranges) and the CFG node each occupies —
///     together these identify the pCFG node the state sits at;
///   * the constraint-graph dfState, with per-set variables living in
///     per-set namespaces (`p0.i`) and never-assigned grid parameters
///     (np, nrows, ...) shared globally, as in Section VII-A's
///     set-specific namespaces;
///   * in-flight sends (buffered-send mode);
///   * the send-receive matches established so far.
///
/// States are canonicalized (sets sorted, namespaces renumbered) so that
/// two visits to the same pCFG configuration are comparable, then joined or
/// widened per Figure 4.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PCFG_PCFGSTATE_H
#define CSDF_PCFG_PCFGSTATE_H

#include "cfg/Cfg.h"
#include "hsm/Poly.h"
#include "numeric/ConstraintGraph.h"
#include "pcfg/AnalysisOptions.h"
#include "procset/ProcSet.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace csdf {

/// A copy-on-write sorted set of variable names. Copying one is a
/// reference-count bump; the flat, sorted name vector behind it is cloned
/// only when a change (an insert of an absent name, an erase of a present
/// one) hits storage another copy still shares. Iteration is in ascending
/// name order, the order of `std::set<std::string>`. Like CowDbm, a value
/// is mutated in place only through a unique handle, so copies may cross
/// threads while each thread changes only its own copy.
class NameSet {
public:
  using const_iterator = std::vector<std::string>::const_iterator;

  std::size_t count(const std::string &Name) const {
    return std::binary_search(begin(), end(), Name) ? 1 : 0;
  }
  bool empty() const { return !Names; }
  std::size_t size() const { return Names ? Names->size() : 0; }
  const_iterator begin() const { return names().begin(); }
  const_iterator end() const { return names().end(); }

  /// Adds \p Name; a no-op (and no clone) when it is present.
  void insert(const std::string &Name);
  /// Removes \p Name; a no-op (and no clone) when it is absent.
  void erase(const std::string &Name);
  /// Adds every name of \p Other; shares \p Other's storage when this set
  /// is empty, and clones nothing when \p Other adds no name.
  void insertAll(const NameSet &Other);

  /// True when both sets read one stored vector.
  bool sharesStorageWith(const NameSet &O) const {
    return Names && Names == O.Names;
  }

private:
  const std::vector<std::string> &names() const;

  /// Null for the empty set.
  std::shared_ptr<std::vector<std::string>> Names;
};

/// One process set inside a state.
struct ProcSetEntry {
  /// Namespace prefix for this set's variables (e.g. "p0").
  std::string Name;
  /// The processes this set denotes.
  ProcRange Range;
  /// The CFG node the set currently occupies.
  CfgNodeId Node = 0;
  /// Variables whose value may differ between processes of this set;
  /// branching on them with a non-singleton range is not exact.
  NameSet NonUniform;
};

/// A buffered (emitted but unmatched) send. Expressions that could change
/// after emission are frozen into `m<Seq>.*` constraint-graph variables at
/// emission time, so the record stays valid as the sender's state evolves.
struct PendingSend {
  CfgNodeId SendNode = 0;
  /// Senders that emitted and whose message is still in flight (bounds
  /// frozen).
  ProcRange Senders;
  /// Monotone emission stamp (FIFO order).
  unsigned Seq = 0;

  /// Frozen destination: id+c offset, or a frozen uniform value. Complex
  /// destinations keep the AST expression (valid only when it reads just
  /// `id` and global parameters).
  bool DestIsIdPlusC = false;
  std::int64_t DestOffset = 0;
  std::optional<LinearExpr> DestUniform;
  const Expr *DestExprAst = nullptr;
  bool DestGlobalsOnly = false;

  /// Frozen tag (uniform) — nullopt when the tag was not classifiable.
  std::optional<LinearExpr> Tag;

  /// Frozen sent value when it was uniform across the senders.
  std::optional<LinearExpr> Value;

  /// Namespace prefix of this record's frozen variables (e.g. "q3").
  /// Leftover pieces of a partially consumed send share one namespace.
  std::string FreezeNs;

  /// Aggregated send loop (the Section X extension): a singleton sender
  /// executed `for v = lo to hi do send x -> v; end`, summarized as one
  /// record; every rank in AggRange receives exactly one message from the
  /// sender. Dest fields are unused when set.
  bool IsAggregate = false;
  ProcRange AggRange;
};

/// A recorded send-receive match (an entry of the paper's `matches` set).
struct MatchRecord {
  CfgNodeId SendNode = 0;
  CfgNodeId RecvNode = 0;
  std::string SenderRange;
  std::string ReceiverRange;

  bool operator<(const MatchRecord &O) const {
    return std::tie(SendNode, RecvNode, SenderRange, ReceiverRange) <
           std::tie(O.SendNode, O.RecvNode, O.SenderRange, O.ReceiverRange);
  }
  bool operator==(const MatchRecord &O) const {
    return SendNode == O.SendNode && RecvNode == O.RecvNode &&
           SenderRange == O.SenderRange && ReceiverRange == O.ReceiverRange;
  }
};

/// The dataflow state at one pCFG node.
class PcfgState {
public:
  std::vector<ProcSetEntry> Sets;
  ConstraintGraph Cg;
  std::vector<PendingSend> InFlight;
  unsigned NextSeq = 0;
  /// Topology invariants gathered from assume statements and equality
  /// branches on global parameters (path-sensitive, hence per-state).
  FactEnv Facts;

  /// Namespaces a set-local variable: globals and `np` stay bare.
  static std::string scopedVar(const ProcSetEntry &Set,
                               const std::string &Var,
                               const std::set<std::string> &AssignedVars) {
    if (!AssignedVars.count(Var))
      return Var; // Global (never assigned anywhere): np, nrows, ...
    return Set.Name + "." + Var;
  }

  /// Renames set \p Idx's namespace to \p NewName (variables included).
  void renameSet(size_t Idx, const std::string &NewName);

  /// Moves every variable of each From namespace of \p Map into its To
  /// namespace, all at once, across the constraint graph, the set ranges
  /// and the pending sends (ranges and frozen expressions).
  void renameNamespaces(const NamespaceMap &Map);

  /// Drops all constraint-graph variables in \p Set's namespace.
  void dropSetVars(const ProcSetEntry &Set);

  /// Sorts sets into canonical order and renumbers namespaces p0, p1, ...
  /// so states at the same configuration are comparable.
  void canonicalize();

  /// Configuration key: which CFG nodes are occupied (with multiplicity)
  /// plus the in-flight send nodes. States with equal keys are joined.
  std::string configKey() const;

  /// Human-readable dump.
  std::string str(const Cfg &Graph) const;

  /// All processes covered by any set (string form, for debugging).
  std::string setsStr() const;
};

/// Joins \p New into \p Acc (same configuration required): ranges keep the
/// bound forms common to both sides, constraint graphs join, pending sends
/// join pairwise. Returns false when the states cannot be joined exactly
/// (e.g. a bound has no stable form) — the caller then goes to Top.
bool joinStates(PcfgState &Acc, const PcfgState &New);

/// Like joinStates but widens the constraint graph (drops unstable
/// bounds), guaranteeing finite ascent around loops. \p Iterate is the
/// widening iterate whose closure Acc.Cg is (a copy of Acc.Cg itself
/// before the first widening); it is widened and given the anchor edits
/// in place, and on success Acc.Cg is its closure. On failure neither
/// graph is changed.
bool widenStates(PcfgState &Acc, const PcfgState &New,
                 ConstraintGraph &Iterate);

/// Structural equality of canonicalized states (used for fixpoint checks).
/// Both states must intern into one SymbolTable, as every state of one
/// run does.
bool statesEqual(const PcfgState &A, const PcfgState &B);

} // namespace csdf

#endif // CSDF_PCFG_PCFGSTATE_H
