//===- perfbench/Generator.cpp --------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"

using namespace perfbench;

std::uint64_t Rng::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

/// Appends source lines and hands back the line number of each.
class Emitter {
public:
  unsigned line(const std::string &Text) {
    Src += Text;
    Src += '\n';
    return ++Lines;
  }
  std::string take() { return std::move(Src); }

private:
  std::string Src;
  unsigned Lines = 0;
};

const char *SquarePartner = "(id % nrows) * nrows + id / nrows";
const char *RectPartner =
    "2 * nrows * (id / 2 % nrows) + 2 * (id / (2 * nrows)) + id % 2";

/// Emits the body of phase \p K (variables suffixed with \p K) and adds
/// its matches to \p Expected.
void emitPhase(Emitter &E, const Phase &P, unsigned K, LinePairs &Expected) {
  std::string A = "a" + std::to_string(K), B = "b" + std::to_string(K);
  std::string L = std::to_string(P.Literal);
  switch (P.Kind) {
  case PhaseKind::FanOut: {
    E.line("  if id == 0 then");
    E.line("    " + A + " = " + L + ";");
    E.line("    for i = 1 to np - 1 do");
    unsigned S = E.line("      send " + A + " -> i;");
    E.line("    end");
    E.line("  else");
    unsigned R = E.line("    recv " + B + " <- 0;");
    E.line("  end");
    Expected.insert({S, R});
    break;
  }
  case PhaseKind::Gather: {
    // Unrolled over the pinned np: the root-side receive loop leaves the
    // cartesian preset at Top, so each receive names its sender.
    E.line("  if id == 0 then");
    std::vector<unsigned> Recvs;
    for (int From = 1; From < ScatterNp; ++From)
      Recvs.push_back(
          E.line("    recv " + B + " <- " + std::to_string(From) + ";"));
    E.line("  else");
    E.line("    " + A + " = id + " + L + ";");
    unsigned S = E.line("    send " + A + " -> 0;");
    E.line("  end");
    for (unsigned R : Recvs)
      Expected.insert({S, R});
    break;
  }
  case PhaseKind::ExchangeRoot: {
    E.line("  if id == 0 then");
    E.line("    " + A + " = " + L + ";");
    E.line("    for i = 1 to np - 1 do");
    unsigned S1 = E.line("      send " + A + " -> i;");
    unsigned R1 = E.line("      recv " + B + " <- i;");
    E.line("    end");
    E.line("  else");
    unsigned R2 = E.line("    recv " + B + " <- 0;");
    unsigned S2 = E.line("    send " + B + " -> 0;");
    E.line("  end");
    Expected.insert({S1, R2});
    Expected.insert({S2, R1});
    break;
  }
  case PhaseKind::Shift1D: {
    E.line("  " + A + " = id + " + L + ";");
    E.line("  if id == 0 then");
    unsigned S1 = E.line("    send " + A + " -> id + 1;");
    E.line("  elif id == np - 1 then");
    unsigned R1 = E.line("    recv " + B + " <- id - 1;");
    E.line("  else");
    unsigned R2 = E.line("    recv " + B + " <- id - 1;");
    unsigned S2 = E.line("    send " + A + " -> id + 1;");
    E.line("  end");
    Expected.insert({S1, R2});
    Expected.insert({S2, R2});
    Expected.insert({S2, R1});
    break;
  }
  case PhaseKind::Pairwise: {
    E.line("  " + A + " = id + " + L + ";");
    E.line("  if id < np / 2 then");
    unsigned S1 = E.line("    send " + A + " -> id + np / 2;");
    unsigned R1 = E.line("    recv " + B + " <- id + np / 2;");
    E.line("  else");
    unsigned R2 = E.line("    recv " + B + " <- id - np / 2;");
    unsigned S2 = E.line("    send " + A + " -> id - np / 2;");
    E.line("  end");
    Expected.insert({S1, R2});
    Expected.insert({S2, R1});
    break;
  }
  case PhaseKind::IsendWaitall: {
    E.line("  if id == 0 then");
    unsigned S1 = E.line("    isend " + L + " -> 1 req s" + std::to_string(K) +
                         "a;");
    unsigned S2 = E.line("    isend " + L + " -> 2 req s" + std::to_string(K) +
                         "b;");
    E.line("    waitall;");
    E.line("  else");
    E.line("    if id < 3 then");
    unsigned R = E.line("      recv " + B + " <- 0;");
    E.line("    end");
    E.line("  end");
    Expected.insert({S1, R});
    Expected.insert({S2, R});
    break;
  }
  case PhaseKind::TransposeSquare:
  case PhaseKind::TransposeRect: {
    const char *Partner =
        P.Kind == PhaseKind::TransposeSquare ? SquarePartner : RectPartner;
    E.line("  " + A + " = id + " + L + ";");
    unsigned S = E.line("  send " + A + " -> " + Partner + ";");
    unsigned R = E.line("  recv " + B + " <- " + Partner + ";");
    Expected.insert({S, R});
    break;
  }
  }
}

/// The phase cycle of each class. A program is a rotation of its class's
/// cycle. The scatter cycle's order matters twice: a gather or an
/// isend/waitall straight after an exchange-with-root leaves the
/// cartesian preset at Top on the seed engine (too many buffered sends in
/// flight; split bounds it cannot order), and a fixed order keeps the cost
/// of a program of N phases nearly independent of the seed.
const std::vector<PhaseKind> &cycleOf(ProgramClass Class) {
  static const std::vector<PhaseKind> Scatter = {
      PhaseKind::ExchangeRoot, PhaseKind::FanOut,  PhaseKind::Gather,
      PhaseKind::Pairwise,     PhaseKind::Shift1D, PhaseKind::IsendWaitall};
  static const std::vector<PhaseKind> Square = {PhaseKind::TransposeSquare};
  static const std::vector<PhaseKind> Rect = {PhaseKind::TransposeRect};
  switch (Class) {
  case ProgramClass::Scatter:
    return Scatter;
  case ProgramClass::GridSquare:
    return Square;
  case ProgramClass::GridRect:
    return Rect;
  }
  return Scatter;
}

int randomLiteral(Rng &R) { return 1 + static_cast<int>(R.below(97)); }

} // namespace

GeneratedProgram perfbench::render(const ProgramSpec &Spec) {
  GeneratedProgram G;
  Emitter E;
  switch (Spec.Class) {
  case ProgramClass::Scatter:
    G.FixedNp = ScatterNp;
    G.RunNp = ScatterNp;
    break;
  case ProgramClass::GridSquare:
    E.line("assume np == nrows * nrows;");
    G.RunNp = 9;
    G.RunParams = {{"nrows", 3}};
    break;
  case ProgramClass::GridRect:
    E.line("assume ncols == nrows * 2;");
    E.line("assume np == ncols * nrows;");
    G.RunNp = 18;
    G.RunParams = {{"nrows", 3}, {"ncols", 6}};
    break;
  }
  for (unsigned K = 0; K < Spec.Phases.size(); ++K) {
    E.line("proc phase" + std::to_string(K) + " do");
    emitPhase(E, Spec.Phases[K], K, G.Expected);
    E.line("end");
  }
  for (unsigned K = 0; K < Spec.Phases.size(); ++K)
    E.line("call phase" + std::to_string(K) + ";");
  G.Source = E.take();
  return G;
}

std::vector<unsigned> perfbench::rotations(ProgramClass Class) {
  std::vector<unsigned> All(cycleOf(Class).size());
  for (unsigned I = 0; I < All.size(); ++I)
    All[I] = I;
  return All;
}

ProgramSpec perfbench::randomSpec(Rng &R, ProgramClass Class,
                                  unsigned NumPhases, unsigned Rotation) {
  const std::vector<PhaseKind> &Cycle = cycleOf(Class);
  ProgramSpec Spec;
  Spec.Class = Class;
  for (unsigned K = 0; K < NumPhases; ++K)
    Spec.Phases.push_back(
        {Cycle[(Rotation + K) % Cycle.size()], randomLiteral(R)});
  return Spec;
}

ProgramSpec perfbench::editLiteral(ProgramSpec Spec, unsigned PhaseIndex,
                                   Rng &R) {
  int &Lit = Spec.Phases[PhaseIndex].Literal;
  int Old = Lit;
  while (Lit == Old)
    Lit = randomLiteral(R);
  return Spec;
}
