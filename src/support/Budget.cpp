//===- support/Budget.cpp -------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include <algorithm>

using namespace csdf;

const char *csdf::budgetKindName(BudgetKind Kind) {
  switch (Kind) {
  case BudgetKind::None:
    return "none";
  case BudgetKind::States:
    return "states";
  case BudgetKind::Variants:
    return "variants";
  case BudgetKind::InFlight:
    return "in-flight";
  case BudgetKind::ProcSets:
    return "proc-sets";
  case BudgetKind::Deadline:
    return "deadline";
  case BudgetKind::Memory:
    return "memory";
  case BudgetKind::ProverSteps:
    return "prover-steps";
  }
  return "unknown";
}

void AnalysisBudget::begin() {
  Start = std::chrono::steady_clock::now();
  Started = true;
  PollsSinceClockRead.store(0, std::memory_order_relaxed);
  LiveBytes.store(0, std::memory_order_relaxed);
  PeakBytes.store(0, std::memory_order_relaxed);
  ProverSteps.store(0, std::memory_order_relaxed);
}

std::uint64_t AnalysisBudget::elapsedMs() const {
  if (!Started)
    return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

void AnalysisBudget::checkDeadline(std::uint64_t Polls) {
  if (DeadlineMs == 0 || !Started)
    return;
  // Clock-read sampling is a heuristic: under relaxed contention two
  // threads may both reset the counter or both skip a read, which only
  // shifts when the next sample happens.
  std::uint32_t Add = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(Polls, ClockSampleInterval));
  if (PollsSinceClockRead.fetch_add(Add, std::memory_order_relaxed) + Add <
      ClockSampleInterval)
    return;
  PollsSinceClockRead.store(0, std::memory_order_relaxed);
  std::uint64_t Elapsed = elapsedMs();
  if (Elapsed > DeadlineMs)
    throw BudgetExceeded(BudgetKind::Deadline,
                         "wall-clock deadline of " +
                             std::to_string(DeadlineMs) + " ms exceeded (" +
                             std::to_string(Elapsed) + " ms elapsed)");
}

void AnalysisBudget::checkpoint() {
  checkDeadline();
  std::uint64_t Live = LiveBytes.load(std::memory_order_relaxed);
  if (MaxMemoryMb != 0 && Live > MaxMemoryMb * 1024 * 1024)
    throw BudgetExceeded(
        BudgetKind::Memory,
        "DBM memory ceiling of " + std::to_string(MaxMemoryMb) +
            " MB exceeded (" + std::to_string(Live / (1024 * 1024)) +
            " MB live)");
}

void AnalysisBudget::proverSteps(std::uint64_t N) {
  if (N == 0)
    return;
  // Take all N steps, or only up to the one that trips (the counter then
  // reads exactly what N single steps would have left behind).
  std::uint64_t Old = ProverSteps.load(std::memory_order_relaxed);
  std::uint64_t Take;
  do {
    Take = N;
    if (MaxProverSteps != 0 && Old + N > MaxProverSteps)
      Take = Old >= MaxProverSteps ? 1 : MaxProverSteps + 1 - Old;
  } while (!ProverSteps.compare_exchange_weak(Old, Old + Take,
                                              std::memory_order_relaxed));
  if (MaxProverSteps != 0 && Old + Take > MaxProverSteps)
    throw BudgetExceeded(BudgetKind::ProverSteps,
                         "HSM prover search-step budget of " +
                             std::to_string(MaxProverSteps) + " exceeded");
  checkDeadline(N);
}

void AnalysisBudget::accountBytes(std::int64_t Delta) {
  std::uint64_t Live;
  if (Delta >= 0) {
    Live = LiveBytes.fetch_add(static_cast<std::uint64_t>(Delta),
                               std::memory_order_relaxed) +
           static_cast<std::uint64_t>(Delta);
  } else {
    // Clamp-at-zero release: a block accounted before begin() reset the
    // counters may release more than is currently live.
    std::uint64_t Release = static_cast<std::uint64_t>(-Delta);
    std::uint64_t Old = LiveBytes.load(std::memory_order_relaxed);
    while (!LiveBytes.compare_exchange_weak(
        Old, Old >= Release ? Old - Release : 0,
        std::memory_order_relaxed))
      ;
    Live = Old >= Release ? Old - Release : 0;
  }
  std::uint64_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Live > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Live,
                                          std::memory_order_relaxed))
    ;
}

namespace {
thread_local AnalysisBudget *CurrentBudget = nullptr;
thread_local ProverStepTally *CurrentTally = nullptr;
} // namespace

AnalysisBudget *csdf::currentBudget() { return CurrentBudget; }

BudgetScope::BudgetScope(AnalysisBudget *Budget) : Previous(CurrentBudget) {
  CurrentBudget = Budget;
}

BudgetScope::~BudgetScope() { CurrentBudget = Previous; }

ProverStepTally *csdf::currentProverStepTally() { return CurrentTally; }

ProverStepTally::ProverStepTally() : Previous(CurrentTally) {
  CurrentTally = this;
}

ProverStepTally::~ProverStepTally() {
  CurrentTally = Previous;
  if (Previous)
    Previous->count(Steps);
}
