//===- hsm/Poly.cpp --------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "hsm/Poly.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>

using namespace csdf;

Mono::Mono(std::int64_t Coeff, std::vector<std::string> TheVars)
    : Coeff(Coeff), Vars(std::move(TheVars)) {
  if (Coeff == 0)
    Vars.clear();
  std::sort(Vars.begin(), Vars.end());
}

Mono Mono::times(const Mono &O) const {
  Mono R;
  R.Coeff = Coeff * O.Coeff;
  if (R.Coeff == 0)
    return R;
  R.Vars = Vars;
  R.Vars.insert(R.Vars.end(), O.Vars.begin(), O.Vars.end());
  std::sort(R.Vars.begin(), R.Vars.end());
  return R;
}

std::optional<Mono> Mono::dividedBy(const Mono &O) const {
  assert(O.Coeff != 0 && "division by zero monomial");
  if (Coeff % O.Coeff != 0)
    return std::nullopt;
  Mono R;
  R.Coeff = Coeff / O.Coeff;
  // Vars and O.Vars are sorted; remove O.Vars from Vars with multiplicity.
  size_t I = 0;
  for (const std::string &V : Vars) {
    if (I < O.Vars.size() && O.Vars[I] == V) {
      ++I;
      continue;
    }
    R.Vars.push_back(V);
  }
  if (I != O.Vars.size())
    return std::nullopt; // Divisor has a variable we lack.
  if (R.Coeff == 0)
    R.Vars.clear();
  return R;
}

std::string Mono::str() const {
  if (Vars.empty())
    return std::to_string(Coeff);
  std::ostringstream OS;
  if (Coeff == -1)
    OS << "-";
  else if (Coeff != 1)
    OS << Coeff << "*";
  for (size_t I = 0; I < Vars.size(); ++I) {
    if (I)
      OS << "*";
    OS << Vars[I];
  }
  return OS.str();
}

Poly::Poly(std::int64_t Const) {
  if (Const != 0)
    Terms.push_back(Mono(Const));
}

Poly::Poly(Mono M) {
  if (!M.isZero())
    Terms.push_back(std::move(M));
}

Poly::Poly(std::vector<Mono> TheTerms) : Terms(std::move(TheTerms)) {
  normalize();
}

void Poly::normalize() {
  std::sort(Terms.begin(), Terms.end(),
            [](const Mono &A, const Mono &B) { return A.Vars < B.Vars; });
  std::vector<Mono> Merged;
  for (const Mono &T : Terms) {
    if (!Merged.empty() && Merged.back().sameVars(T))
      Merged.back().Coeff += T.Coeff;
    else
      Merged.push_back(T);
  }
  Merged.erase(std::remove_if(Merged.begin(), Merged.end(),
                              [](const Mono &M) { return M.isZero(); }),
               Merged.end());
  Terms = std::move(Merged);
}

Poly Poly::plus(const Poly &O) const {
  std::vector<Mono> All = Terms;
  All.insert(All.end(), O.Terms.begin(), O.Terms.end());
  return Poly(std::move(All));
}

Poly Poly::minus(const Poly &O) const { return plus(O.negated()); }

Poly Poly::negated() const {
  std::vector<Mono> All = Terms;
  for (Mono &M : All)
    M.Coeff = -M.Coeff;
  return Poly(std::move(All));
}

Poly Poly::times(const Poly &O) const {
  std::vector<Mono> All;
  for (const Mono &A : Terms)
    for (const Mono &B : O.Terms)
      All.push_back(A.times(B));
  return Poly(std::move(All));
}

std::optional<Poly> Poly::dividedBy(const Mono &Divisor) const {
  std::vector<Mono> All;
  for (const Mono &T : Terms) {
    auto Q = T.dividedBy(Divisor);
    if (!Q)
      return std::nullopt;
    All.push_back(*Q);
  }
  return Poly(std::move(All));
}

std::optional<std::int64_t> Poly::eval(
    const std::vector<std::pair<std::string, std::int64_t>> &Env) const {
  std::int64_t Sum = 0;
  for (const Mono &T : Terms) {
    std::int64_t V = T.Coeff;
    for (const std::string &Var : T.Vars) {
      bool Found = false;
      for (const auto &[Name, Value] : Env) {
        if (Name == Var) {
          V *= Value;
          Found = true;
          break;
        }
      }
      if (!Found)
        return std::nullopt;
    }
    Sum += V;
  }
  return Sum;
}

std::size_t Poly::hash() const {
  std::size_t H = Terms.size();
  for (const Mono &M : Terms) {
    H = hashCombine(H, std::hash<std::int64_t>()(M.Coeff));
    for (const std::string &V : M.Vars)
      H = hashCombine(H, std::hash<std::string>()(V));
  }
  return H;
}

std::string Poly::str() const {
  if (Terms.empty())
    return "0";
  std::ostringstream OS;
  for (size_t I = 0; I < Terms.size(); ++I) {
    std::string S = Terms[I].str();
    if (I > 0 && !S.empty() && S[0] != '-')
      OS << "+";
    OS << S;
  }
  return OS.str();
}

bool FactEnv::addRewrite(const std::string &Var, const Poly &Replacement) {
  // Reject rules whose replacement (after existing rewrites) still mentions
  // Var — that would loop forever.
  Poly Canon = canon(Replacement);
  for (const Mono &T : Canon.terms())
    for (const std::string &V : T.Vars)
      if (V == Var)
        return false;
  // Re-canonicalize existing rules so rewrites stay triangular.
  Rewrites.emplace_back(Var, Canon);
  for (auto &[Lhs, Rhs] : Rewrites)
    Rhs = substitute(Rhs, Var, Canon);
  return true;
}

Poly FactEnv::substitute(const Poly &P, const std::string &Var,
                         const Poly &Replacement) {
  Poly Result;
  for (const Mono &T : P.terms()) {
    // Split T into Var^k * Rest.
    unsigned Power = 0;
    Mono Rest(T.Coeff);
    for (const std::string &V : T.Vars) {
      if (V == Var)
        ++Power;
      else
        Rest = Rest.times(Mono::var(V));
    }
    Poly Term = Poly(Rest);
    for (unsigned I = 0; I < Power; ++I)
      Term = Term.times(Replacement);
    Result = Result.plus(Term);
  }
  return Result;
}

Poly FactEnv::canon(const Poly &P) const {
  Poly Cur = P;
  // Rules are triangular (no rule's RHS mentions any rule's LHS), so one
  // pass per rule suffices.
  for (const auto &[Var, Replacement] : Rewrites)
    Cur = substitute(Cur, Var, Replacement);
  return Cur;
}

std::size_t FactEnv::hash() const {
  std::size_t H = Rewrites.size();
  for (const auto &[Var, Replacement] : Rewrites)
    H = hashCombine(hashCombine(H, std::hash<std::string>()(Var)),
                    Replacement.hash());
  return H;
}

void FactEnv::intersectWith(const FactEnv &O) {
  std::vector<std::pair<std::string, Poly>> Kept;
  for (const auto &Rule : Rewrites)
    for (const auto &Other : O.Rewrites)
      if (Rule == Other) {
        Kept.push_back(Rule);
        break;
      }
  Rewrites = std::move(Kept);
}

std::optional<Poly> FactEnv::divide(const Poly &A, const Poly &D) const {
  Poly CA = canon(A);
  Poly CD = canon(D);
  if (!CD.isMono())
    return std::nullopt;
  return CA.dividedBy(CD.asMono());
}
