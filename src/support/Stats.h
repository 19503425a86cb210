//===- support/Stats.h - Lightweight analysis statistics ------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny analogue of LLVM's Statistic class: named counters and timers that
/// analysis components bump and benchmarks read back. Used to reproduce the
/// Section IX profile of the paper (closure call counts, average variable
/// counts, fraction of time spent in state consistency).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_STATS_H
#define CSDF_SUPPORT_STATS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace csdf {

/// Process-wide registry of named counters and accumulated durations.
///
/// Thread-safe: updates and reads take an internal mutex, so concurrent
/// analyses (`csdf batch --mode threads`) may share the global registry. Hot analysis
/// loops avoid both the lock and the string lookup by caching the
/// counter's cell via counterCell() once and bumping the atomic directly;
/// cells have stable addresses for the registry's lifetime (clear() zeroes
/// them in place).
class StatsRegistry {
public:
  /// Returns the registry used by library components by default.
  static StatsRegistry &global();

  /// The atomic cell behind counter \p Name (creating it at zero). The
  /// reference stays valid — and keeps counting into this registry — for
  /// the registry's lifetime. Bump with fetch_add(delta,
  /// std::memory_order_relaxed).
  std::atomic<std::int64_t> &counterCell(const std::string &Name);

  /// The atomic nanosecond cell behind timer \p Name, for hot loops that
  /// cannot afford addSeconds' lock; seconds()/timers() fold it into the
  /// reported value. Same lifetime guarantees as counterCell().
  std::atomic<std::int64_t> &nanosCell(const std::string &Name);

  /// Adds \p Delta to counter \p Name (creating it at zero).
  void addCounter(const std::string &Name, std::int64_t Delta = 1);

  /// Adds \p Seconds to timer \p Name (creating it at zero).
  void addSeconds(const std::string &Name, double Seconds);

  /// Current value of counter \p Name, or 0 if never bumped.
  std::int64_t counter(const std::string &Name) const;

  /// Accumulated seconds of timer \p Name, or 0 if never bumped.
  double seconds(const std::string &Name) const;

  /// Resets all counters and timers. Counter cells handed out by
  /// counterCell() are zeroed, not destroyed.
  void clear();

  /// Snapshot of all counters with a nonzero value, for report printing.
  /// (Zero-valued cells are retained internally for address stability but
  /// carry no information worth reporting.)
  std::map<std::string, std::int64_t> counters() const;

  /// Snapshot of all timers, for report printing.
  std::map<std::string, double> timers() const;

private:
  mutable std::mutex Mutex;
  /// std::map nodes never move, so cell addresses are stable.
  std::map<std::string, std::atomic<std::int64_t>> Counters;
  std::map<std::string, double> Timers;
  /// Nanoseconds accumulated through nanosCell(), folded into Timers'
  /// view on read.
  std::map<std::string, std::atomic<std::int64_t>> Nanos;
};

/// RAII timer that adds its lifetime to a named StatsRegistry timer.
class ScopedTimer {
public:
  ScopedTimer(StatsRegistry &Registry, std::string Name)
      : Registry(Registry), Name(std::move(Name)),
        Start(std::chrono::steady_clock::now()) {}

  ~ScopedTimer() {
    auto End = std::chrono::steady_clock::now();
    Registry.addSeconds(Name,
                        std::chrono::duration<double>(End - Start).count());
  }

  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  StatsRegistry &Registry;
  std::string Name;
  std::chrono::steady_clock::time_point Start;
};

/// RAII timer that adds its lifetime, in nanoseconds, to a cached
/// StatsRegistry::nanosCell(). The lock- and allocation-free variant of
/// ScopedTimer for per-closure-call use; a null cell disables it.
class ScopedNanoTimer {
public:
  explicit ScopedNanoTimer(std::atomic<std::int64_t> *Cell)
      : Cell(Cell), Start(std::chrono::steady_clock::now()) {}

  ~ScopedNanoTimer() {
    if (!Cell)
      return;
    auto End = std::chrono::steady_clock::now();
    Cell->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        End - Start)
                        .count(),
                    std::memory_order_relaxed);
  }

  ScopedNanoTimer(const ScopedNanoTimer &) = delete;
  ScopedNanoTimer &operator=(const ScopedNanoTimer &) = delete;

private:
  std::atomic<std::int64_t> *Cell;
  std::chrono::steady_clock::time_point Start;
};

} // namespace csdf

#endif // CSDF_SUPPORT_STATS_H
