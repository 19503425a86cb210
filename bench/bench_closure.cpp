//===- bench/bench_closure.cpp - E6: transitive closure cost -------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Section IX attributes the prototype's cost to constraint-graph
// transitive closures: the O(n^3) full closure, the O(n^2) single-edge
// repair, and STL-container storage with poor locality ("implementing
// dataflow state using efficient abstractions such as arrays instead of
// C++ STL containers" is optimization direction 3).
//
// This benchmark regenerates the shape of those claims:
//   * full closure scales ~n^3, incremental repair ~n^2;
//   * the dense-array backend beats the std::map backend by a wide margin.
//
// Each run reports its closure counts per iteration as counters, read
// from a private StatsRegistry; `--benchmark_format=json` is the
// machine-readable output.
//
//===----------------------------------------------------------------------===//

#include "numeric/ConstraintGraph.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace csdf;

namespace {

/// Builds a chain + random-ish extra constraints over N variables.
ConstraintGraph buildGraph(DbmBackend Backend, int N, StatsRegistry *Stats,
                           SymbolTablePtr Syms = nullptr,
                           ClosureMemoPtr Memo = nullptr) {
  ConstraintGraph G(Backend, Stats, std::move(Syms), std::move(Memo));
  for (int I = 0; I + 1 < N; ++I)
    G.addLE("v" + std::to_string(I), "v" + std::to_string(I + 1),
            (I * 7) % 5);
  for (int I = 0; I < N; I += 3)
    G.addLE("v" + std::to_string((I * 5 + 2) % N),
            "v" + std::to_string((I * 11 + 7) % N), 3 + I % 4);
  return G;
}

/// Builds a mostly-unconstrained graph: all N variables exist, but only
/// every 16th pair carries a bound. The common shape for cold pCFG states
/// (most symbolic variables never interact); the closure kernel's
/// occupancy bitmap should collapse the O(n^3) to the few live rows.
ConstraintGraph buildSparseGraph(DbmBackend Backend, int N,
                                 StatsRegistry *Stats) {
  ConstraintGraph G(Backend, Stats);
  for (int I = 0; I < N; ++I)
    G.ensureVar("v" + std::to_string(I));
  for (int I = 0; I + 1 < N; I += 16)
    G.addLE("v" + std::to_string(I), "v" + std::to_string(I + 1),
            (I * 7) % 5);
  return G;
}

/// Publishes \p Stats' closure counts, per iteration, as \p State's
/// counters.
void reportClosures(benchmark::State &State, const StatsRegistry &Stats) {
  auto PerIteration = [&](const char *Key) {
    return benchmark::Counter(static_cast<double>(Stats.counter(Key)),
                              benchmark::Counter::kAvgIterations);
  };
  State.counters["full_closures"] = PerIteration("cg.closure.full.calls");
  State.counters["incr_closures"] = PerIteration("cg.closure.incr.calls");
  State.counters["memo_hits"] = PerIteration("cg.closure.memo.hits");
}

void BM_FullClosure(benchmark::State &State) {
  StatsRegistry Stats;
  auto Backend = static_cast<DbmBackend>(State.range(0));
  int N = static_cast<int>(State.range(1));
  for (auto _ : State) {
    State.PauseTiming();
    ConstraintGraph G = buildGraph(Backend, N, &Stats);
    State.ResumeTiming();
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  reportClosures(State, Stats);
  State.SetComplexityN(N);
}

void BM_IncrementalRepair(benchmark::State &State) {
  StatsRegistry Stats;
  auto Backend = static_cast<DbmBackend>(State.range(0));
  int N = static_cast<int>(State.range(1));
  ConstraintGraph G = buildGraph(Backend, N, &Stats);
  G.close();
  std::int64_t C = -1000;
  for (auto _ : State) {
    // Each tightening of one edge triggers the O(n^2) repair on the next
    // query.
    G.addLE("v0", "v" + std::to_string(N - 1), C--);
    benchmark::DoNotOptimize(G.isFeasible());
  }
  reportClosures(State, Stats);
  State.SetComplexityN(N);
}

void BM_MemoizedReclose(benchmark::State &State) {
  StatsRegistry Stats;
  auto Backend = static_cast<DbmBackend>(State.range(0));
  int N = static_cast<int>(State.range(1));
  auto Syms = std::make_shared<SymbolTable>();
  auto Memo = std::make_shared<ClosureMemo>();
  for (auto _ : State) {
    // Rebuilding an identical graph models the engine revisiting a pCFG
    // configuration: the first close is a full Floyd-Warshall (memo
    // miss), every later one adopts the memoized closed block.
    State.PauseTiming();
    ConstraintGraph G = buildGraph(Backend, N, &Stats, Syms, Memo);
    State.ResumeTiming();
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  reportClosures(State, Stats);
  State.SetComplexityN(N);
}

void BM_JoinGraphs(benchmark::State &State) {
  StatsRegistry Stats;
  auto Backend = static_cast<DbmBackend>(State.range(0));
  int N = static_cast<int>(State.range(1));
  ConstraintGraph A = buildGraph(Backend, N, &Stats);
  ConstraintGraph B = buildGraph(Backend, N, &Stats);
  B.addLE("v1", "v0", 2);
  for (auto _ : State) {
    ConstraintGraph Copy = A;
    Copy.joinWith(B);
    benchmark::DoNotOptimize(Copy.numVars());
  }
  reportClosures(State, Stats);
}

/// Cold close of a mostly-unconstrained graph: the closure kernel's
/// sparse-row skip. BM_FullClosure at the same n is the baseline.
void BM_SparseCold(benchmark::State &State) {
  StatsRegistry Stats;
  auto Backend = static_cast<DbmBackend>(State.range(0));
  int N = static_cast<int>(State.range(1));
  for (auto _ : State) {
    State.PauseTiming();
    ConstraintGraph G = buildSparseGraph(Backend, N, &Stats);
    State.ResumeTiming();
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  reportClosures(State, Stats);
}

} // namespace

BENCHMARK(BM_FullClosure)
    ->ArgsProduct({{static_cast<long>(DbmBackend::Dense),
                    static_cast<long>(DbmBackend::MapBased)},
                   {8, 16, 32, 64, 128}})
    ->Complexity(benchmark::oNCubed)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_IncrementalRepair)
    ->ArgsProduct({{static_cast<long>(DbmBackend::Dense),
                    static_cast<long>(DbmBackend::MapBased)},
                   {8, 16, 32, 64, 128}})
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_MemoizedReclose)
    ->ArgsProduct({{static_cast<long>(DbmBackend::Dense),
                    static_cast<long>(DbmBackend::MapBased)},
                   {8, 16, 32, 64, 128}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_JoinGraphs)
    ->ArgsProduct({{static_cast<long>(DbmBackend::Dense),
                    static_cast<long>(DbmBackend::MapBased)},
                   {16, 64}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_SparseCold)
    ->ArgsProduct({{static_cast<long>(DbmBackend::Dense),
                    static_cast<long>(DbmBackend::MapBased)},
                   {8, 16, 32, 64}})
    ->Unit(benchmark::kMicrosecond);

// Dense full closures at sizes spanning several kernel::ClosureTile tiles
// per axis: the cache-blocking tuning record.
BENCHMARK(BM_FullClosure)
    ->Name("BM_BlockedSweep")
    ->ArgsProduct({{static_cast<long>(DbmBackend::Dense)}, {64, 128, 256}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
