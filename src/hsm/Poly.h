//===- hsm/Poly.h - Symbolic monomials and polynomials ------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar algebra underneath Hierarchical Sequence Maps: HSM bases,
/// strides and repeat counts are polynomials over symbolic grid parameters
/// (`np`, `nrows`, ...). A FactEnv carries the topology invariants injected
/// by `assume` statements (e.g. `np == nrows * ncols`) as directed rewrite
/// rules, so polynomial equality is decided modulo those facts — exactly
/// the inference the paper performs when it replaces `np` with
/// `nrows * nrows` during the NAS-CG derivation (Section VIII-A).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_HSM_POLY_H
#define CSDF_HSM_POLY_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace csdf {

/// Mixes \p V into the running hash \p Seed (for memo lookups).
inline std::size_t hashCombine(std::size_t Seed, std::size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) + (Seed >> 2));
}

/// A monomial: Coeff * (product of variables, with multiplicity).
struct Mono {
  std::int64_t Coeff = 0;
  /// Sorted variable names (duplicates = powers).
  std::vector<std::string> Vars;

  Mono() = default;
  explicit Mono(std::int64_t Coeff) : Coeff(Coeff) {}
  Mono(std::int64_t Coeff, std::vector<std::string> Vars);

  static Mono var(const std::string &Name) { return Mono(1, {Name}); }

  bool isZero() const { return Coeff == 0; }
  bool isConstant() const { return Vars.empty(); }

  Mono times(const Mono &O) const;

  /// Exact division: nullopt unless O's coefficient and variables divide
  /// this monomial.
  std::optional<Mono> dividedBy(const Mono &O) const;

  /// Key identifying the variable part (for merging like terms).
  bool sameVars(const Mono &O) const { return Vars == O.Vars; }
  bool operator==(const Mono &O) const {
    return Coeff == O.Coeff && Vars == O.Vars;
  }
  bool operator<(const Mono &O) const {
    if (Vars != O.Vars)
      return Vars < O.Vars;
    return Coeff < O.Coeff;
  }

  std::string str() const;
};

/// A canonical sum of monomials (sorted by variable part, like terms
/// merged, zero terms dropped; the empty sum is 0).
class Poly {
public:
  Poly() = default;
  /*implicit*/ Poly(std::int64_t Const);
  /*implicit*/ Poly(Mono M);
  explicit Poly(std::vector<Mono> Terms);

  static Poly var(const std::string &Name) { return Poly(Mono::var(Name)); }

  bool isZero() const { return Terms.empty(); }
  bool isConstant() const {
    return Terms.empty() || (Terms.size() == 1 && Terms[0].isConstant());
  }
  std::optional<std::int64_t> constantValue() const {
    if (Terms.empty())
      return 0;
    if (Terms.size() == 1 && Terms[0].isConstant())
      return Terms[0].Coeff;
    return std::nullopt;
  }
  /// True when the polynomial is exactly one monomial (suitable as a
  /// divisor/modulus).
  bool isMono() const { return Terms.size() == 1; }
  const Mono &asMono() const { return Terms.front(); }

  const std::vector<Mono> &terms() const { return Terms; }

  Poly plus(const Poly &O) const;
  Poly minus(const Poly &O) const;
  Poly times(const Poly &O) const;
  Poly negated() const;

  /// Exact termwise division by a monomial; nullopt if any term fails.
  std::optional<Poly> dividedBy(const Mono &Divisor) const;

  /// True when every term is exactly divisible by \p Divisor.
  bool divisibleBy(const Mono &Divisor) const {
    return dividedBy(Divisor).has_value();
  }

  /// Evaluates with variable values from \p Env; nullopt on unbound vars.
  std::optional<std::int64_t>
  eval(const std::vector<std::pair<std::string, std::int64_t>> &Env) const;

  bool operator==(const Poly &O) const { return Terms == O.Terms; }
  bool operator!=(const Poly &O) const { return !(*this == O); }
  bool operator<(const Poly &O) const { return Terms < O.Terms; }

  /// Hash consistent with operator== (for memo lookups).
  std::size_t hash() const;

  std::string str() const;

private:
  void normalize();

  std::vector<Mono> Terms;
};

/// Directed rewrite rules derived from `assume` equalities. Rewrites
/// eliminate derived parameters (np, ncols) in favour of base ones so two
/// polynomials are equal iff their canonical forms coincide.
class FactEnv {
public:
  /// Adds the rewrite Var -> Replacement. Returns false (and ignores the
  /// rule) if it would create a rewrite cycle.
  bool addRewrite(const std::string &Var, const Poly &Replacement);

  /// Canonical form of \p P: all rewrites applied to fixpoint.
  Poly canon(const Poly &P) const;

  /// Equality modulo facts.
  bool equal(const Poly &A, const Poly &B) const {
    return canon(A) == canon(B);
  }

  /// Exact division modulo facts: canon(A) / canon(D) if D canonicalizes
  /// to a single monomial.
  std::optional<Poly> divide(const Poly &A, const Poly &D) const;

  /// True if canon(A) is termwise divisible by canon(D).
  bool divisible(const Poly &A, const Poly &D) const {
    return divide(A, D).has_value();
  }

  size_t numRewrites() const { return Rewrites.size(); }

  /// Keeps only rewrites present in \p O as well (used when joining
  /// dataflow states from different paths: only facts that hold on both
  /// paths survive).
  void intersectWith(const FactEnv &O);

  bool operator==(const FactEnv &O) const { return Rewrites == O.Rewrites; }

  /// Hash consistent with operator== (for memo lookups).
  std::size_t hash() const;

private:
  /// Substitutes Var -> Replacement in every term of P.
  static Poly substitute(const Poly &P, const std::string &Var,
                         const Poly &Replacement);

  std::vector<std::pair<std::string, Poly>> Rewrites;
};

} // namespace csdf

#endif // CSDF_HSM_POLY_H
