//===- bench/BenchMeta.h - Shared benchmark metadata stamp ---------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON "meta" object perfbench prints as its `meta` line, so every
/// run records the environment it was measured in (hardware threads,
/// compiler, build flags). Without it, two runs can silently compare
/// numbers from different machines or build configurations.
///
/// Usage: emit benchMetaJson() as the value of a top-level "meta" key.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_BENCH_BENCHMETA_H
#define CSDF_BENCH_BENCHMETA_H

#include <sstream>
#include <string>
#include <thread>

namespace csdf {
namespace bench {

/// Build flags perfbench was compiled with, injected by
/// perfbench/CMakeLists.txt. Falls back to "unknown" when built outside
/// that CMake (e.g. a hand compile).
#ifndef CSDF_BENCH_BUILD_FLAGS
#define CSDF_BENCH_BUILD_FLAGS "unknown"
#endif

inline std::string benchMetaCompiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The shared metadata object: {"hardware_threads": N, "compiler": "...",
/// "build_flags": "..."}. Compact one-line form so callers can splice it
/// into hand-rolled JSON writers at any indentation.
inline std::string benchMetaJson() {
  std::ostringstream Out;
  Out << "{\"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << benchMetaCompiler() << "\""
      << ", \"build_flags\": \"" << CSDF_BENCH_BUILD_FLAGS << "\"}";
  return Out.str();
}

} // namespace bench
} // namespace csdf

#endif // CSDF_BENCH_BENCHMETA_H
