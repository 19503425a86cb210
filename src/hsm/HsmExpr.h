//===- hsm/HsmExpr.h - MPL expressions as HSMs ---------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts MPL communication expressions into HSMs and implements the
/// send/receive matching proofs of Section VIII-B:
///
///  * image: the HSM produced by applying an expression to a process set
///    (`id` becomes the set's range HSM; other variables become symbolic
///    grid parameters repeated across the set);
///  * surjectivity: image(sendExpr, senders) set-equals the receiver set;
///  * identity: recvExpr applied to image(sendExpr, senders)
///    sequence-equals the senders — the composition is the identity map.
///
/// FactEnvs are built from `assume` equalities (`np == ncols * nrows`).
///
/// HsmMatchMemo caches full-set match verdicts for one analysis run, so a
/// program that writes the same transpose in every phase proves it once.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_HSM_HSMEXPR_H
#define CSDF_HSM_HSMEXPR_H

#include "hsm/Hsm.h"
#include "lang/Ast.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace csdf {

class StatsRegistry;

/// Converts \p E to a polynomial over program variables (+, -, * only).
std::optional<Poly> polyOfExpr(const Expr *E);

/// Registers the fact asserted by `assume Lhs == Rhs` as a rewrite rule in
/// \p Facts. Returns false for shapes the fact engine cannot use (which is
/// not an error; the fact is simply unavailable).
bool addAssumeFact(FactEnv &Facts, const Expr *Cond);

/// Evaluates \p E over a process set whose `id` values form \p IdValue.
/// Constants and free variables become constant sequences of the same
/// length. Returns nullopt when an operation falls outside the HSM algebra
/// (e.g. division with a non-monomial divisor).
std::optional<Hsm> hsmOfExpr(const Expr *E, const Hsm &IdValue,
                             const FactEnv &Facts);

/// The image of applying \p PartnerExpr on process set [Lo .. Lo+Count-1].
std::optional<Hsm> hsmImageOnRange(const Expr *PartnerExpr, const Poly &Lo,
                                   const Poly &Count, const FactEnv &Facts);

/// Section VIII-B matching for whole process sets: true when
///  (i) SendExpr surjectively maps the sender range onto the receiver
///      range (image set-equality), and
/// (ii) RecvExpr o SendExpr is the identity on the sender range
///      (sequence-equality of the composition with the senders).
bool hsmFullSetMatch(const Expr *SendExpr, const Poly &SenderLo,
                     const Poly &SenderCount, const Expr *RecvExpr,
                     const Poly &RecvLo, const Poly &RecvCount,
                     const FactEnv &Facts);

/// A memo in front of hsmFullSetMatch, owned by one analysis run.
///
/// Questions are keyed by structure: the partner expressions are compared
/// with exprEquals (and hashed to match), the four bounds and the facts by
/// value. Each phase of a program has its own AST nodes, so keying by
/// address would almost never hit. Expressions containing input() never
/// equal anything and bypass the memo.
///
/// Each entry records the verdict and the prover steps its uncached proof
/// took (counted by a ProverStepTally). A hit charges the same steps to
/// the thread's budget, so step counts and `--prover-steps` trips do not
/// depend on whether an answer came from the memo. A proof that throws
/// stores nothing.
///
/// Thread-safe: the engine gives each run its own memo and queries it
/// from that run's thread only, but lookups and inserts still take a
/// mutex so a memo stays safe to share; proofs run outside it, so two
/// threads missing on the same question may both prove it (the answers
/// are equal).
class HsmMatchMemo {
public:
  /// \p Stats, when non-null, receives the `hsm.match.memo.hits` and
  /// `hsm.match.memo.misses` counters.
  explicit HsmMatchMemo(StatsRegistry *Stats = nullptr);

  HsmMatchMemo(const HsmMatchMemo &) = delete;
  HsmMatchMemo &operator=(const HsmMatchMemo &) = delete;

  /// hsmFullSetMatch over the same arguments, from the memo when the
  /// question was asked before. The bounds are taken by value so a miss
  /// can move them into its entry.
  bool match(const Expr *SendExpr, Poly SenderLo, Poly SenderCount,
             const Expr *RecvExpr, Poly RecvLo, Poly RecvCount,
             const FactEnv &Facts);

  /// Number of questions with a stored answer.
  std::size_t size() const;

private:
  /// One answered question. The expressions are the first ones asked; the
  /// AST they belong to outlives the analysis run, and so the memo.
  struct Entry {
    const Expr *SendExpr = nullptr, *RecvExpr = nullptr;
    Poly SenderLo, SenderCount, RecvLo, RecvCount;
    FactEnv Facts;
    bool Verdict = false;
    std::uint64_t Steps = 0;
  };

  /// The stored answer to a question, or null. The caller holds Mu.
  const Entry *find(std::size_t Key, const Expr *SendExpr,
                    const Poly &SenderLo, const Poly &SenderCount,
                    const Expr *RecvExpr, const Poly &RecvLo,
                    const Poly &RecvCount, const FactEnv &Facts) const;

  mutable std::mutex Mu;
  /// Question hash -> answers (a bucket per hash keeps lookups copy-free).
  std::unordered_map<std::size_t, std::vector<Entry>> Entries;
  std::atomic<std::int64_t> *Hits = nullptr;
  std::atomic<std::int64_t> *Misses = nullptr;
};

} // namespace csdf

#endif // CSDF_HSM_HSMEXPR_H
