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

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

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

void BM_FullClosure(benchmark::State &State, DbmBackend Backend) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
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

void BM_IncrementalRepair(benchmark::State &State, DbmBackend Backend) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
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

void BM_MemoizedReclose(benchmark::State &State, DbmBackend Backend) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
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

void BM_JoinGraphs(benchmark::State &State, DbmBackend Backend) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
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
void BM_SparseCold(benchmark::State &State, DbmBackend Backend) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    ConstraintGraph G = buildSparseGraph(Backend, N, &Stats);
    State.ResumeTiming();
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  reportClosures(State, Stats);
}

/// Registers \p Fn at sizes \p Ns as two families, `<Name>/dense/<n>` and
/// `<Name>/map/<n>`, so a ->Complexity() fit covers one backend.
void registerPerBackend(const char *Name,
                        void (*Fn)(benchmark::State &, DbmBackend),
                        std::initializer_list<std::int64_t> Ns,
                        benchmark::BigO Fit = benchmark::oNone) {
  for (auto [Suffix, Backend] : {std::pair("dense", DbmBackend::Dense),
                                 std::pair("map", DbmBackend::MapBased)}) {
    char Family[64];
    std::snprintf(Family, sizeof(Family), "%s/%s", Name, Suffix);
    benchmark::internal::Benchmark *B =
        benchmark::RegisterBenchmark(Family, Fn, Backend);
    for (std::int64_t N : Ns)
      B->Arg(N);
    if (Fit != benchmark::oNone)
      B->Complexity(Fit);
    B->Unit(benchmark::kMicrosecond);
  }
}

const bool Registered = [] {
  registerPerBackend("BM_FullClosure", BM_FullClosure, {8, 16, 32, 64, 128},
                     benchmark::oNCubed);
  registerPerBackend("BM_IncrementalRepair", BM_IncrementalRepair,
                     {8, 16, 32, 64, 128}, benchmark::oNSquared);
  registerPerBackend("BM_MemoizedReclose", BM_MemoizedReclose,
                     {8, 16, 32, 64, 128});
  registerPerBackend("BM_JoinGraphs", BM_JoinGraphs, {16, 64});
  registerPerBackend("BM_SparseCold", BM_SparseCold, {8, 16, 32, 64});
  // Dense full closures at sizes spanning several kernel::ClosureTile
  // tiles per axis: the cache-blocking tuning record.
  benchmark::RegisterBenchmark("BM_BlockedSweep", BM_FullClosure,
                               DbmBackend::Dense)
      ->Arg(64)
      ->Arg(128)
      ->Arg(256)
      ->Unit(benchmark::kMicrosecond);
  return true;
}();

} // namespace

BENCHMARK_MAIN();
