//===- tests/hsm/HsmMatchMemoTest.cpp - HSM match memo tests ---------------===//
//
// HsmMatchMemo against its oracle, the uncached hsmFullSetMatch: same
// verdicts and same prover steps charged on randomized questions, sharing
// by structure (not AST address), misses on any change of facts, bounds or
// operators, nothing stored for a proof that trips its budget, and the
// same answers and step totals when eight threads share one memo.
//
//===----------------------------------------------------------------------===//

#include "hsm/HsmExpr.h"

#include "lang/Parser.h"
#include "support/Budget.h"
#include "support/Casting.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <deque>
#include <thread>

using namespace csdf;

namespace {

class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed | 1) {}

  std::uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }

  std::size_t below(std::size_t N) { return next() % N; }

private:
  std::uint64_t State;
};

/// A verdict and the prover steps charged to the budget for it.
struct Charged {
  bool Verdict = false;
  std::uint64_t Steps = 0;

  bool operator==(const Charged &O) const {
    return Verdict == O.Verdict && Steps == O.Steps;
  }
};

std::ostream &operator<<(std::ostream &OS, const Charged &C) {
  return OS << (C.Verdict ? "match" : "no match") << " in " << C.Steps
            << " steps";
}

/// One full-set match question. Expressions are source text so every ask
/// can parse a fresh AST (new addresses, same structure).
struct Question {
  std::string Send, Recv;
  Poly SLo, SCount, RLo, RCount;
  FactEnv Facts;
};

class HsmMatchMemoTest : public ::testing::Test {
protected:
  /// Parses \p Text into a new AST node owned by the fixture.
  const Expr *parseExpr(const std::string &Text) {
    ParseResult R = parseProgram("x = " + Text + ";");
    EXPECT_TRUE(R.succeeded()) << Text;
    Programs.push_back(std::move(R.Prog));
    return cast<AssignStmt>(Programs.back().body()[0])->value();
  }

  /// Runs \p Ask under a fresh unlimited budget and reports what it
  /// charged.
  template <typename Fn> static Charged charged(Fn Ask) {
    AnalysisBudget Budget;
    Budget.begin();
    BudgetScope Scope(&Budget);
    Charged C;
    C.Verdict = Ask();
    C.Steps = Budget.proverStepsUsed();
    return C;
  }

  Charged uncached(const Question &Q) {
    const Expr *S = parseExpr(Q.Send), *R = parseExpr(Q.Recv);
    return charged([&] {
      return hsmFullSetMatch(S, Q.SLo, Q.SCount, R, Q.RLo, Q.RCount, Q.Facts);
    });
  }

  Charged memoized(HsmMatchMemo &Memo, const Question &Q) {
    const Expr *S = parseExpr(Q.Send), *R = parseExpr(Q.Recv);
    return charged([&] {
      return Memo.match(S, Q.SLo, Q.SCount, R, Q.RLo, Q.RCount, Q.Facts);
    });
  }

  /// Random questions over the partner shapes the engine meets: square
  /// and rectangular transposes, id +- c shifts, np / 2 exchanges,
  /// constant partners and non-monomial divisors, under zero, one or two
  /// facts. Each starts from a natural question (most of which prove);
  /// half are then perturbed in one component (an expression, a bound or
  /// the facts), which mostly breaks the proof.
  std::vector<Question> randomQuestions(std::uint64_t Seed, int N) {
    const Poly Np = Poly::var("np"), NRows = Poly::var("nrows");
    const Poly Half = Poly::var("half");
    FactEnv None, Square, SquareTwo, Rect, Halves;
    Square.addRewrite("np", NRows.times(NRows));
    SquareTwo.addRewrite("np", Poly::var("ncols").times(NRows));
    SquareTwo.addRewrite("ncols", NRows);
    Rect.addRewrite("np", Poly::var("ncols").times(NRows));
    Rect.addRewrite("ncols", Poly(2).times(NRows));
    Halves.addRewrite("np", Poly(2).times(Half));
    const std::string T = "(id % nrows) * nrows + id / nrows";
    const std::string TRect =
        "2 * nrows * (id / 2 % nrows) + 2 * (id / (2 * nrows)) + id % 2";
    const std::vector<Question> Natural = {
        {T, T, Poly(0), Np, Poly(0), Np, Square},
        {T, T, Poly(0), Np, Poly(0), Np, SquareTwo},
        {TRect, TRect, Poly(0), Np, Poly(0), Np, Rect},
        {"id + 1", "id - 1", Poly(1), Np.minus(Poly(3)), Poly(2),
         Np.minus(Poly(3)), None},
        {"id + 3", "id - 3", Poly(0), Poly(1), Poly(3), Poly(1), None},
        {"id + np / 2", "id - np / 2", Poly(0), Half, Half, Half, Halves},
        {"i", "0", Poly(0), Poly(1), Poly::var("i"), Poly(1), None},
        {"id", "id", Poly::var("k"), Poly(1), Poly::var("k"), Poly(1), None},
        {"id / (nrows + 1)", "id * (nrows + 1)", Poly(0), Np, Poly(0), Np,
         Square},
        {"id / 2", "id * 2", Poly(0), Poly(4), Poly(0), Poly(2), None},
    };
    const std::vector<std::string> Exprs = {T, TRect, "id + 1", "id - 1",
                                            "id - 3", "id + np / 2", "0"};
    const std::vector<Poly> Bounds = {Poly(0), Poly(1), Np, Np.minus(Poly(1)),
                                      NRows, Half};
    const std::vector<FactEnv> Facts = {None, Square, SquareTwo, Rect,
                                        Halves};

    Rng R(Seed);
    std::vector<Question> Qs;
    for (int I = 0; I < N; ++I) {
      Question Q = Natural[R.below(Natural.size())];
      switch (R.below(10)) {
      case 0:
        Q.Send = Exprs[R.below(Exprs.size())];
        break;
      case 1:
        Q.Recv = Exprs[R.below(Exprs.size())];
        break;
      case 2:
        Q.SLo = Bounds[R.below(Bounds.size())];
        break;
      case 3:
        Q.RCount = Bounds[R.below(Bounds.size())];
        break;
      case 4:
        Q.Facts = Facts[R.below(Facts.size())];
        break;
      default:
        break;
      }
      Qs.push_back(std::move(Q));
    }
    return Qs;
  }

  /// Square transpose on [0 .. np) under np == nrows * nrows.
  static Question transpose() {
    Question Q;
    Q.Send = Q.Recv = "(id % nrows) * nrows + id / nrows";
    Q.SLo = Q.RLo = Poly(0);
    Q.SCount = Q.RCount = Poly::var("np");
    Q.Facts.addRewrite("np", Poly::var("nrows").times(Poly::var("nrows")));
    return Q;
  }

  std::deque<Program> Programs;
};

TEST_F(HsmMatchMemoTest, AgreesWithTheProverOnRandomQuestions) {
  int Matches = 0, Hits = 0;
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    StatsRegistry Stats;
    HsmMatchMemo Memo(&Stats);
    std::vector<Question> Qs = randomQuestions(Seed, 40);
    // Every question is asked three times, in shuffled order.
    std::vector<std::size_t> Order;
    for (int Rep = 0; Rep < 3; ++Rep)
      for (std::size_t I = 0; I < Qs.size(); ++I)
        Order.push_back(I);
    Rng R(Seed * 77);
    for (std::size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);

    for (std::size_t I : Order) {
      const Question &Q = Qs[I];
      Charged Want = uncached(Q);
      EXPECT_EQ(memoized(Memo, Q), Want)
          << Q.Send << " / " << Q.Recv << " on [" << Q.SLo.str() << " +"
          << Q.SCount.str() << "] -> [" << Q.RLo.str() << " +"
          << Q.RCount.str() << "], " << Q.Facts.numRewrites() << " facts";
      Matches += Want.Verdict;
    }
    Hits += static_cast<int>(Stats.counter("hsm.match.memo.hits"));
    EXPECT_EQ(Stats.counter("hsm.match.memo.misses"),
              static_cast<std::int64_t>(Memo.size()));
  }
  // The sweep must exercise both verdicts and the replay path.
  EXPECT_GT(Matches, 20);
  EXPECT_GT(Hits, 200);
}

TEST_F(HsmMatchMemoTest, StructurallyEqualExpressionsShareOneEntry) {
  StatsRegistry Stats;
  HsmMatchMemo Memo(&Stats);
  Question Q = transpose();
  Charged First = memoized(Memo, Q);
  Charged Second = memoized(Memo, Q); // fresh AST nodes, same structure
  EXPECT_TRUE(First.Verdict);
  EXPECT_EQ(Second, First);
  EXPECT_EQ(Memo.size(), 1u);
  EXPECT_EQ(Stats.counter("hsm.match.memo.misses"), 1);
  EXPECT_EQ(Stats.counter("hsm.match.memo.hits"), 1);
}

TEST_F(HsmMatchMemoTest, DifferentFactsBoundsOrOperatorsMiss) {
  StatsRegistry Stats;
  HsmMatchMemo Memo(&Stats);
  Question Base = transpose();
  ASSERT_TRUE(memoized(Memo, Base).Verdict);

  // Without the assume the transpose does not prove.
  Question NoFacts = Base;
  NoFacts.Facts = FactEnv();
  EXPECT_EQ(memoized(Memo, NoFacts), uncached(NoFacts));
  EXPECT_FALSE(memoized(Memo, NoFacts).Verdict);

  Question Bound = Base;
  Bound.RLo = Poly(1);
  EXPECT_EQ(memoized(Memo, Bound), uncached(Bound));

  Question Op = Base;
  Op.Recv = "(id % nrows) * nrows - id / nrows";
  EXPECT_EQ(memoized(Memo, Op), uncached(Op));

  EXPECT_EQ(Memo.size(), 4u);
  EXPECT_EQ(Stats.counter("hsm.match.memo.misses"), 4);
  EXPECT_EQ(Stats.counter("hsm.match.memo.hits"), 1);
}

TEST_F(HsmMatchMemoTest, InputReadsBypassTheMemo) {
  HsmMatchMemo Memo;
  Question Q = transpose();
  Q.Recv = "input()";
  EXPECT_EQ(memoized(Memo, Q), uncached(Q));
  EXPECT_EQ(Memo.size(), 0u);
}

TEST_F(HsmMatchMemoTest, ProofThatTripsItsBudgetStoresNothing) {
  HsmMatchMemo Memo;
  Question Q = transpose();
  const Expr *S = parseExpr(Q.Send), *R = parseExpr(Q.Recv);
  Charged Full = uncached(Q);
  ASSERT_GT(Full.Steps, 1u);

  AnalysisBudget Tight;
  Tight.MaxProverSteps = Full.Steps - 1;
  Tight.begin();
  {
    BudgetScope Scope(&Tight);
    EXPECT_THROW(
        Memo.match(S, Q.SLo, Q.SCount, R, Q.RLo, Q.RCount, Q.Facts),
        BudgetExceeded);
  }
  EXPECT_EQ(Memo.size(), 0u);

  // Answered later, the same question is proven (and charged) in full;
  // replayed under the tight budget it trips exactly as the proof did.
  EXPECT_EQ(memoized(Memo, Q), Full);
  EXPECT_EQ(Memo.size(), 1u);
  AnalysisBudget Again;
  Again.MaxProverSteps = Full.Steps - 1;
  Again.begin();
  BudgetScope Scope(&Again);
  EXPECT_THROW(Memo.match(S, Q.SLo, Q.SCount, R, Q.RLo, Q.RCount, Q.Facts),
               BudgetExceeded);
  EXPECT_EQ(Again.proverStepsUsed(), Tight.proverStepsUsed());
}

TEST_F(HsmMatchMemoTest, ThreadsSharingOneMemoAgreeWithASequentialRun) {
  constexpr int Threads = 8;
  std::vector<Question> Qs = randomQuestions(99, 24);
  Qs.push_back(transpose());

  // The sequential, uncached reference: verdicts and total steps.
  std::vector<Charged> Want;
  std::uint64_t WantSteps = 0;
  for (const Question &Q : Qs) {
    Want.push_back(uncached(Q));
    WantSteps += Want.back().Steps;
  }

  // Parse each thread's ASTs up front: the parser is not what is tested.
  std::vector<std::vector<std::pair<const Expr *, const Expr *>>> Asts(
      Threads);
  for (auto &Mine : Asts)
    for (const Question &Q : Qs)
      Mine.emplace_back(parseExpr(Q.Send), parseExpr(Q.Recv));

  HsmMatchMemo Memo;
  AnalysisBudget Shared;
  Shared.begin();
  std::vector<std::vector<char>> Got(Threads, std::vector<char>(Qs.size()));
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      BudgetScope Scope(&Shared);
      // Each thread walks the questions from a different start.
      for (std::size_t K = 0; K < Qs.size(); ++K) {
        std::size_t I = (K + static_cast<std::size_t>(T) * 3) % Qs.size();
        const Question &Q = Qs[I];
        Got[T][I] = Memo.match(Asts[T][I].first, Q.SLo, Q.SCount,
                               Asts[T][I].second, Q.RLo, Q.RCount, Q.Facts);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  for (int T = 0; T < Threads; ++T)
    for (std::size_t I = 0; I < Qs.size(); ++I)
      EXPECT_EQ(Got[T][I] != 0, Want[I].Verdict)
          << "thread " << T << " q" << I;
  EXPECT_EQ(Shared.proverStepsUsed(), WantSteps * Threads);
}

} // namespace
