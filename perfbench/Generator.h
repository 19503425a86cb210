//===- perfbench/Generator.h - Seeded multi-phase MPL program generator ---===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the generated programs of the bench of record from a seed. Every
/// program is a chain of communication phases, one procedure per phase,
/// and carries its expected answer: the set of (send line, recv line)
/// matches and "complete, no bugs". The answer is written down by the
/// generator from each phase's template, never read back from the
/// analyzer, so the benchmark can check verdicts against it.
///
/// Two program classes:
///   * scatter family — fan-out, gather-to-root, exchange-with-root, 1-D
///     shift, pairwise exchange and isend/waitall phases at a pinned np;
///   * grid — square or rectangular transposes, symbolic under `assume`,
///     so matching goes through the HSM prover. (2-D vertical shifts are
///     left out: with a symbolic row length the engine cannot order the
///     split bounds and gives Top.)
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PERFBENCH_GENERATOR_H
#define CSDF_PERFBENCH_GENERATOR_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a portable seeded stream, so the same seed gives the same
/// programs with every standard library.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, N).
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::uint64_t State;
};

/// Deals a fixed multiset of cards in seeded order, reshuffling each time
/// it runs out. The seed picks the order, never the proportions, so a
/// stream of a given length has nearly the same mix under every seed.
class Deck {
public:
  explicit Deck(std::vector<unsigned> Cards)
      : Cards(std::move(Cards)), Next(this->Cards.size()) {}
  unsigned deal(Rng &R) {
    if (Next == Cards.size()) {
      R.shuffle(Cards);
      Next = 0;
    }
    return Cards[Next++];
  }

private:
  std::vector<unsigned> Cards;
  std::size_t Next;
};

enum class ProgramClass { Scatter, GridSquare, GridRect };

enum class PhaseKind {
  FanOut,
  Gather,
  ExchangeRoot,
  Shift1D,
  Pairwise,
  IsendWaitall,
  TransposeSquare,
  TransposeRect,
};

struct Phase {
  PhaseKind Kind = PhaseKind::FanOut;
  /// The one literal of the phase; an edit changes only this.
  int Literal = 0;
};

/// The shape of one program; render() turns it into source text.
struct ProgramSpec {
  ProgramClass Class = ProgramClass::Scatter;
  std::vector<Phase> Phases;
};

using LinePairs = std::set<std::pair<unsigned, unsigned>>;

struct GeneratedProgram {
  std::string Source;
  /// Expected (send line, recv line) match set.
  LinePairs Expected;
  /// np pinned for the analysis (scatter family); 0 keeps np symbolic.
  std::int64_t FixedNp = 0;
  /// A concrete configuration for the interpreter.
  int RunNp = 0;
  std::map<std::string, std::int64_t> RunParams;
};

/// The pinned process count of scatter-family programs.
constexpr int ScatterNp = 8;

GeneratedProgram render(const ProgramSpec &Spec);

/// Every rotation of the phase cycle of \p Class: 0 .. length - 1.
std::vector<unsigned> rotations(ProgramClass Class);

/// A program of \p Class with \p NumPhases phases: the class's phase cycle
/// started at phase \p Rotation (modulo the cycle length), each phase with
/// a seeded literal. The rotation changes a scatter program's cost by up
/// to a third, so callers deal it from a Deck.
ProgramSpec randomSpec(Rng &R, ProgramClass Class, unsigned NumPhases,
                       unsigned Rotation);

/// \p Spec with the literal of phase \p PhaseIndex changed: same lines,
/// same communication, same expected answer.
ProgramSpec editLiteral(ProgramSpec Spec, unsigned PhaseIndex, Rng &R);

} // namespace perfbench

#endif // CSDF_PERFBENCH_GENERATOR_H
