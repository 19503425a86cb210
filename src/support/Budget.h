//===- support/Budget.h - Cooperative analysis resource governor ----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AnalysisBudget bounds the four resources the paper's Section IX profile
/// shows dominate analysis cost: wall-clock time (the fan-out broadcast took
/// 381 s), memory held in DBM state, engine worklist steps, and HSM prover
/// search steps. Budgets are *cooperative*: hot loops poll checkpoint() (or
/// proverStep() in the prover search), which throws BudgetExceeded when a
/// limit trips. The engine catches the exception at the worklist loop and
/// degrades the result to Top with a structured verdict instead of hanging
/// or dying.
///
/// Layers that cannot see AnalysisOptions (numeric core, prover, matcher)
/// reach the active budget through a thread-local installed by BudgetScope
/// for the duration of Engine::run. A null current budget makes every poll
/// a no-op, so standalone use of those layers is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_BUDGET_H
#define CSDF_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace csdf {

/// Which resource bound forced an analysis to give up. `None` is reserved
/// for precision give-ups (the engine's own "cannot prove a match" path)
/// that are not resource exhaustion.
enum class BudgetKind {
  None,        ///< Not a resource limit (precision give-up or no failure).
  States,      ///< AnalysisOptions::MaxStates worklist-step bound.
  Variants,    ///< AnalysisOptions::MaxVariantsPerConfig bound.
  InFlight,    ///< AnalysisOptions::MaxInFlight send-buffer bound.
  ProcSets,    ///< AnalysisOptions::MaxProcSets process-set bound.
  Deadline,    ///< AnalysisBudget wall-clock deadline.
  Memory,      ///< AnalysisBudget DBM memory ceiling.
  ProverSteps, ///< AnalysisBudget HSM prover search-step bound.
};

/// Stable lower-case name for a budget kind ("deadline", "memory", ...).
const char *budgetKindName(BudgetKind Kind);

/// Thrown by AnalysisBudget::checkpoint()/proverStep() when a limit trips.
/// Caught by Engine::run (and the driver Session) and converted into a
/// DegradedToTop outcome; never escapes to the user as an abort.
class BudgetExceeded : public std::runtime_error {
public:
  BudgetExceeded(BudgetKind Kind, std::string Reason)
      : std::runtime_error(Reason), Kind(Kind), Reason(std::move(Reason)) {}

  BudgetKind kind() const { return Kind; }
  const std::string &reason() const { return Reason; }

private:
  BudgetKind Kind;
  std::string Reason;
};

/// Resource limits for one analysis session plus the accounting state used
/// to enforce them. Configure the *Limit fields, call begin() immediately
/// before the analysis starts, then poll checkpoint() from hot loops.
///
/// The budget object must outlive every DBM it has accounted bytes for:
/// DbmShared blocks keep a raw pointer back to the budget and release their
/// bytes on destruction.
class AnalysisBudget {
public:
  /// Wall-clock deadline in milliseconds from begin(); 0 = unlimited.
  std::uint64_t DeadlineMs = 0;
  /// Soft ceiling on live DBM bytes, in megabytes; 0 = unlimited. "Soft"
  /// because accounting covers DBM storage (the dominant allocation, per
  /// Section IX) rather than every byte the process touches.
  std::uint64_t MaxMemoryMb = 0;
  /// HSM prover search-step bound across the whole session; 0 = unlimited.
  std::uint64_t MaxProverSteps = 0;

  /// True when any limit is configured. An unlimited budget never trips:
  /// it is pure accounting, so deterministic-exploration consumers (trace
  /// capture/replay) treat it like no budget at all.
  bool limited() const { return DeadlineMs || MaxMemoryMb || MaxProverSteps; }

  /// Stamps the deadline clock and resets accounting. Call once, just
  /// before the work the budget governs.
  void begin();

  /// True once begin() has been called. The engine begins a not-yet-started
  /// budget itself, so drivers may start the clock earlier (covering
  /// parsing) or leave it to the engine.
  bool started() const { return Started; }

  /// Cheap cooperative poll: checks the deadline (via a sampled steady
  /// clock read) and the memory ceiling. Throws BudgetExceeded on a trip.
  /// Safe to call at loop frequency: the clock is only read once every
  /// ClockSampleInterval calls.
  void checkpoint();

  /// Counts one HSM prover search step; throws BudgetExceeded(ProverSteps)
  /// past MaxProverSteps and samples the deadline like checkpoint().
  void proverStep() { proverSteps(1); }

  /// Counts \p N prover steps at once, tripping exactly where \p N
  /// proverStep() calls would: the counter stops at the failing step and
  /// the message is the same. Replays a memoized proof's cost.
  void proverSteps(std::uint64_t N);

  /// Accounts a change in live DBM bytes (positive on allocation/growth,
  /// negative on release). Growth past MaxMemoryMb does not throw here —
  /// destructors release through this path — it trips the next
  /// checkpoint() instead.
  void accountBytes(std::int64_t Delta);

  /// Live DBM bytes currently accounted.
  std::uint64_t liveBytes() const {
    return LiveBytes.load(std::memory_order_relaxed);
  }
  /// High-water mark of accounted DBM bytes.
  std::uint64_t peakBytes() const {
    return PeakBytes.load(std::memory_order_relaxed);
  }
  /// Prover search steps consumed so far.
  std::uint64_t proverStepsUsed() const {
    return ProverSteps.load(std::memory_order_relaxed);
  }
  /// Milliseconds elapsed since begin().
  std::uint64_t elapsedMs() const;

private:
  /// Counts \p Polls deadline polls; reads the clock once the sampling
  /// interval is used up.
  void checkDeadline(std::uint64_t Polls = 1);

  /// How many checkpoint()/proverStep() calls share one clock read.
  static constexpr std::uint32_t ClockSampleInterval = 256;

  std::chrono::steady_clock::time_point Start{};
  bool Started = false;
  /// The counters below are atomics so a budget stays safe to poll from
  /// any thread that installs it with BudgetScope. All of them are
  /// heuristics or monotone accumulators, so relaxed ordering is enough:
  /// no other data is published through them, and a poll that reads a
  /// slightly stale value only delays a trip by one sampling interval.
  std::atomic<std::uint32_t> PollsSinceClockRead{0};
  std::atomic<std::uint64_t> LiveBytes{0};
  std::atomic<std::uint64_t> PeakBytes{0};
  std::atomic<std::uint64_t> ProverSteps{0};
};

/// The budget governing the current thread's analysis, or null. Installed
/// by BudgetScope; polled by layers (numeric closure, matcher, prover)
/// that have no channel to AnalysisOptions.
AnalysisBudget *currentBudget();

/// Installs \p Budget as the thread's current budget for the scope's
/// lifetime, restoring the previous one on exit (scopes nest).
class BudgetScope {
public:
  explicit BudgetScope(AnalysisBudget *Budget);
  ~BudgetScope();

  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

private:
  AnalysisBudget *Previous;
};

/// Polls the thread's current budget, if any. The form hot loops outside
/// the engine use: one predictable branch when no budget is installed.
inline void budgetCheckpoint() {
  if (AnalysisBudget *B = currentBudget())
    B->checkpoint();
}

/// Counts the prover steps taken on the current thread while it is in
/// scope, whatever budget (if any) they are charged to. A memo uses it to
/// learn what one uncached proof cost: a run need not have a budget, so
/// the budget's own counter cannot tell. Tallies nest; an inner tally's
/// steps also count towards the enclosing one.
class ProverStepTally {
public:
  ProverStepTally();
  ~ProverStepTally();

  ProverStepTally(const ProverStepTally &) = delete;
  ProverStepTally &operator=(const ProverStepTally &) = delete;

  std::uint64_t steps() const { return Steps; }
  void count(std::uint64_t N) { Steps += N; }

private:
  ProverStepTally *Previous;
  std::uint64_t Steps = 0;
};

/// The innermost tally installed on this thread, or null.
ProverStepTally *currentProverStepTally();

/// Counts \p N prover search steps on the thread's tally and against its
/// current budget, if any.
inline void budgetProverSteps(std::uint64_t N) {
  if (ProverStepTally *T = currentProverStepTally())
    T->count(N);
  if (AnalysisBudget *B = currentBudget())
    B->proverSteps(N);
}

/// Counts one prover search step (see budgetProverSteps).
inline void budgetProverStep() { budgetProverSteps(1); }

} // namespace csdf

#endif // CSDF_SUPPORT_BUDGET_H
