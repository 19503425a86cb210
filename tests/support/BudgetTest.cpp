//===- tests/support/BudgetTest.cpp - AnalysisBudget unit tests ------------===//

#include "support/Budget.h"
#include "support/ErrorHandling.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace csdf;

namespace {

TEST(BudgetTest, UnlimitedBudgetNeverThrows) {
  AnalysisBudget B;
  B.begin();
  for (int I = 0; I < 10000; ++I)
    B.checkpoint();
  for (int I = 0; I < 10000; ++I)
    B.proverStep();
  EXPECT_EQ(B.proverStepsUsed(), 10000u);
}

TEST(BudgetTest, DeadlineTripsAfterClockSample) {
  AnalysisBudget B;
  B.DeadlineMs = 1;
  B.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is sampled once per ClockSampleInterval polls, so a single
  // checkpoint may pass; a full interval of polls must trip.
  EXPECT_THROW(
      {
        for (int I = 0; I < 1000; ++I)
          B.checkpoint();
      },
      BudgetExceeded);
  try {
    for (int I = 0; I < 1000; ++I)
      B.checkpoint();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded &E) {
    EXPECT_EQ(E.kind(), BudgetKind::Deadline);
    EXPECT_NE(E.reason().find("deadline"), std::string::npos);
  }
}

TEST(BudgetTest, NotStartedNeverTrips) {
  AnalysisBudget B;
  B.DeadlineMs = 1;
  // begin() was never called: the budget is inert.
  for (int I = 0; I < 1000; ++I)
    B.checkpoint();
  EXPECT_FALSE(B.started());
}

TEST(BudgetTest, MemoryCeilingTripsAtCheckpoint) {
  AnalysisBudget B;
  B.MaxMemoryMb = 1;
  B.begin();
  B.accountBytes(2 * 1024 * 1024);
  // accountBytes itself must not throw (destructors release through it);
  // the ceiling is enforced at the next checkpoint.
  try {
    B.checkpoint();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded &E) {
    EXPECT_EQ(E.kind(), BudgetKind::Memory);
  }
  // Releasing the bytes clears the condition; peak stays.
  B.accountBytes(-2 * 1024 * 1024);
  B.checkpoint();
  EXPECT_EQ(B.liveBytes(), 0u);
  EXPECT_EQ(B.peakBytes(), 2u * 1024 * 1024);
}

TEST(BudgetTest, OverReleaseClampsToZero) {
  AnalysisBudget B;
  B.begin();
  B.accountBytes(64);
  B.accountBytes(-1000);
  EXPECT_EQ(B.liveBytes(), 0u);
  EXPECT_EQ(B.peakBytes(), 64u);
}

TEST(BudgetTest, ProverStepBudgetTrips) {
  AnalysisBudget B;
  B.MaxProverSteps = 10;
  B.begin();
  for (int I = 0; I < 10; ++I)
    B.proverStep();
  try {
    B.proverStep();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded &E) {
    EXPECT_EQ(E.kind(), BudgetKind::ProverSteps);
  }
}

TEST(BudgetTest, BulkProverStepsTripLikeSingleSteps) {
  // For every start point and batch size, proverSteps(N) throws iff N
  // single steps would, with the same message, and leaves the counter
  // where the single steps would have.
  for (std::uint64_t Start = 0; Start <= 12; ++Start) {
    for (std::uint64_t N = 0; N <= 12; ++N) {
      AnalysisBudget Single, Bulk;
      Single.MaxProverSteps = Bulk.MaxProverSteps = 10;
      Single.begin();
      Bulk.begin();
      std::string SingleError, BulkError;
      try {
        for (std::uint64_t I = 0; I < Start + N; ++I)
          Single.proverStep();
      } catch (const BudgetExceeded &E) {
        SingleError = E.reason();
      }
      try {
        for (std::uint64_t I = 0; I < Start; ++I)
          Bulk.proverStep();
        Bulk.proverSteps(N);
      } catch (const BudgetExceeded &E) {
        BulkError = E.reason();
      }
      EXPECT_EQ(BulkError, SingleError) << Start << "+" << N;
      EXPECT_EQ(Bulk.proverStepsUsed(), Single.proverStepsUsed())
          << Start << "+" << N;
    }
  }
}

TEST(BudgetTest, ProverStepTallyCountsWithAndWithoutBudget) {
  ProverStepTally Outer;
  budgetProverStep(); // no budget installed: the tally still counts
  AnalysisBudget B;
  B.begin();
  BudgetScope Scope(&B);
  {
    ProverStepTally Inner;
    budgetProverSteps(4);
    EXPECT_EQ(Inner.steps(), 4u);
    EXPECT_EQ(currentProverStepTally(), &Inner);
  }
  EXPECT_EQ(currentProverStepTally(), &Outer);
  // The inner tally's steps count towards the enclosing one.
  EXPECT_EQ(Outer.steps(), 5u);
  EXPECT_EQ(B.proverStepsUsed(), 4u);
}

TEST(BudgetTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(currentBudget(), nullptr);
  AnalysisBudget Outer, Inner;
  {
    BudgetScope S1(&Outer);
    EXPECT_EQ(currentBudget(), &Outer);
    {
      BudgetScope S2(&Inner);
      EXPECT_EQ(currentBudget(), &Inner);
    }
    EXPECT_EQ(currentBudget(), &Outer);
  }
  EXPECT_EQ(currentBudget(), nullptr);
  // The inline helpers are no-ops with no scope installed.
  budgetCheckpoint();
  budgetProverStep();
}

TEST(BudgetTest, KindNamesAreStable) {
  EXPECT_STREQ(budgetKindName(BudgetKind::None), "none");
  EXPECT_STREQ(budgetKindName(BudgetKind::States), "states");
  EXPECT_STREQ(budgetKindName(BudgetKind::Variants), "variants");
  EXPECT_STREQ(budgetKindName(BudgetKind::InFlight), "in-flight");
  EXPECT_STREQ(budgetKindName(BudgetKind::ProcSets), "proc-sets");
  EXPECT_STREQ(budgetKindName(BudgetKind::Deadline), "deadline");
  EXPECT_STREQ(budgetKindName(BudgetKind::Memory), "memory");
  EXPECT_STREQ(budgetKindName(BudgetKind::ProverSteps), "prover-steps");
}

TEST(BudgetTest, RecoveryScopeTurnsUnreachableIntoEngineError) {
  EXPECT_FALSE(RecoveryScope::active());
  try {
    RecoveryScope Recover;
    EXPECT_TRUE(RecoveryScope::active());
    csdf_unreachable("deliberate for test");
    FAIL() << "expected EngineError";
  } catch (const EngineError &E) {
    EXPECT_NE(std::string(E.what()).find("deliberate for test"),
              std::string::npos);
    EXPECT_NE(E.line(), 0u);
  }
  EXPECT_FALSE(RecoveryScope::active());
}

} // namespace
